package sampling

import (
	"errors"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// overDenseStar builds a synthetic device no physical lattice produces:
// a hub qubit coupled to `leaves` lower-indexed neighbours, classed so
// the hub is the control of every edge. Each edge attaches 4 bands to
// the hub (it is the higher index) and every control-pair triple
// attaches its type-7 band there too, so the hub accumulates
// 4·leaves + C(leaves, 2) bands — past maxSeqBands for leaves ≥ 9.
func overDenseStar(leaves int) *topo.Device {
	n := leaves + 1
	g := graph.New(n)
	for i := 0; i < leaves; i++ {
		g.AddEdge(i, leaves)
	}
	d := &topo.Device{
		Name:     "overdense-star",
		N:        n,
		Class:    make([]topo.Class, n),
		IsBridge: make([]bool, n),
		G:        g,
	}
	d.Class[leaves] = topo.F2 // F2 > F0: the hub controls every edge
	return d
}

// TestImportanceBandLimit pins the maxSeqBands overflow guard: an
// over-dense device must be rejected at construction with a typed
// *BandLimitError — never reach SampleInto, whose per-qubit scratch the
// limit protects.
func TestImportanceBandLimit(t *testing.T) {
	const leaves = 12
	d := overDenseStar(leaves)
	_, err := New(Spec{Method: Importance}, d, fab.DefaultModel(), collision.DefaultParams())
	if err == nil {
		t.Fatal("over-dense device accepted; want *BandLimitError")
	}
	var ble *BandLimitError
	if !errors.As(err, &ble) {
		t.Fatalf("error %v (%T), want *BandLimitError", err, err)
	}
	if ble.Qubit != leaves {
		t.Errorf("limit reported for qubit %d, want the hub %d", ble.Qubit, leaves)
	}
	if want := 4*leaves + leaves*(leaves-1)/2; ble.Bands != want {
		t.Errorf("reported %d bands, want %d", ble.Bands, want)
	}
	if ble.Limit != maxSeqBands {
		t.Errorf("reported limit %d, want maxSeqBands %d", ble.Limit, maxSeqBands)
	}

	// A hub inside the limit must construct and sample cleanly: the
	// guard must not reject devices the scratch can actually serve.
	ok := overDenseStar(8) // 4·8 + 28 = 60 ≤ 64
	est, err := New(Spec{Method: Importance}, ok, fab.DefaultModel(), collision.DefaultParams())
	if err != nil {
		t.Fatalf("in-limit star rejected: %v", err)
	}
	r := runner.NewTrialRNG().At(3, 0)
	buf := make([]float64, ok.N)
	for i := 0; i < 50; i++ {
		est.SampleInto(r, i, buf)
	}
}

// TestSampleIntoAllocationFree pins the per-trial allocation contract
// for every estimator (plain's trial is the fused
// collision.Checker.SampleFree draw-and-check): the hot path must not
// touch the heap, or the engine's trials/sec collapses under GC
// pressure at campaign scale.
func TestSampleIntoAllocationFree(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(100))
	m := fab.DefaultModel()
	p := collision.DefaultParams()
	for _, spec := range []Spec{{Method: Plain}, {Method: Importance}} {
		est, err := New(spec, d, m, p)
		if err != nil {
			t.Fatal(err)
		}
		r := runner.NewTrialRNG().At(5, 0)
		buf := make([]float64, d.N)
		est.PlanBlock(0, 4096)
		i := 0
		avg := testing.AllocsPerRun(200, func() {
			est.SampleInto(r, i, buf)
			i++
		})
		if avg != 0 {
			t.Errorf("%s: SampleInto allocates %.1f per trial, want 0", spec.Method, avg)
		}
	}
}
