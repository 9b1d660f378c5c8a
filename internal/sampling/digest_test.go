package sampling

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// importanceDigest is the SHA-256 of the importance proposal's log
// weights and realised frequencies over digestDevices. It was recorded
// while newImportance still derived Table I on its own, so it pins that
// building the proposal from collision.Checker.Intervals changed no bit.
const importanceDigest = "017944379d4902598c807652a410c549d58145fbe584b270de7152da88d9dd5c"

// digestDevice is one importance digest device and its thresholds.
type digestDevice struct {
	d *topo.Device
	p collision.Params
}

// digestDevices returns the paper's 100- and 200-qubit monolithic
// devices, the 100-qubit one again with its couplings added in reverse
// order (each qubit lists its neighbours from high to low, so control
// pairs name their later-placed target first), a 24-qubit device at 3×
// the Table I thresholds, and every lattice family at 2×2 tiles of 10
// qubits.
func digestDevices(t *testing.T) []digestDevice {
	paper := topo.MonolithicDevice(topo.MonolithicSpec(100))
	rev := *paper
	rev.G = graph.New(paper.N)
	es := paper.G.Edges()
	for i := len(es) - 1; i >= 0; i-- {
		rev.G.AddEdge(es[i].U, es[i].V)
	}
	out := []digestDevice{
		{paper, collision.DefaultParams()},
		{&rev, collision.DefaultParams()},
		{topo.MonolithicDevice(topo.MonolithicSpec(200)), collision.DefaultParams()},
		{topo.MonolithicDevice(topo.MonolithicSpec(24)), scaledThresholds(3)},
	}
	for _, fam := range topo.LatticeFamilies() {
		spec := topo.LatticeSpec{Family: fam, Rows: 2, Cols: 2, ChipQubits: 10}
		if fam == topo.FamilyStack3D {
			spec.Layers = 2
		}
		d, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestDevice{d, collision.DefaultParams()})
	}
	return out
}

// TestImportanceDigestPinned pins importance sampling bit for bit: the
// first 430 trials on each digest device hash their log weight and every
// realised frequency, in trial order.
func TestImportanceDigestPinned(t *testing.T) {
	const perDevice = 430
	devs := digestDevices(t)
	h := sha256.New()
	rng := runner.NewTrialRNG()
	var word [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	for _, dv := range devs {
		est, err := New(Spec{Method: Importance}, dv.d, fab.DefaultModel(), dv.p)
		if err != nil {
			t.Fatalf("%s: %v", dv.d.Name, err)
		}
		buf := make([]float64, dv.d.N)
		for i := 0; i < perDevice; i++ {
			put(est.SampleInto(rng.At(11, i), i, buf))
			for _, f := range buf {
				put(f)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != importanceDigest {
		t.Errorf("importance digest %s, want %s", got, importanceDigest)
	}
}
