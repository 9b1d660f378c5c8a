package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"chipletqc/internal/compiler"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
)

// The compiled-output digests pin every gate the compiler emits, not
// just the Table II counts: a routing change that kept the counts but
// moved a SWAP, or permuted the layout, changes the digest. Recompute a
// digest after an intentional routing change by printing `got`.
const (
	// table2CompileDigest covers Table2(QuickConfig(6)): all seven
	// benchmarks on the 2x2 MCM of every Table II chiplet size.
	table2CompileDigest = "3128ec9505516bec74e0b2a50a88cf2f3b672dc1fdab2f8df6e9be3ffb471aa7"
	// linkAwareCompileDigest covers the weighted-routing path: the suite
	// on a 2x2 MCM of 20q chiplets under LinkAwareCost(dev, 4).
	linkAwareCompileDigest = "4d30065decf36d876372afb1c066362a6b07caadcd9a459f9d47848d08747e34"
)

// digestResult writes one compile result's gate list, layouts and
// counts to h. Parameters are hashed by their bit pattern so the digest
// is exact.
func digestResult(h hash.Hash, label string, r *compiler.Result) {
	fmt.Fprintf(h, "%s\n", label)
	for _, g := range r.Compiled.Gates {
		fmt.Fprintf(h, "%s %x %v\n", g.Name(), math.Float64bits(g.Param), g.Qubits())
	}
	fmt.Fprintf(h, "initial %v\nfinal %v\ncounts %+v\n", r.InitialLayout, r.FinalLayout, r.Counts)
}

func TestTable2CompiledOutputDigest(t *testing.T) {
	cfg := QuickConfig(6)
	rows, err := runTable2(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replays Table2's compile loop, keeping the full results; the row
	// counts tie the replay to Table2 itself.
	h := sha256.New()
	i := 0
	for _, cq := range Table2Chiplets {
		spec, err := cfg.scn().SpecForQubits(cq)
		if err != nil {
			t.Fatal(err)
		}
		dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: spec})
		width := qbench.UtilizedQubits(dev.N)
		for _, bs := range qbench.Suite() {
			r, err := compiler.Compile(bs.Generate(width, cfg.Seed+seedOffTable2Circuits), dev)
			if err != nil {
				t.Fatalf("%dq %s: %v", cq, bs.Short, err)
			}
			if r.Counts != rows[i].Counts {
				t.Fatalf("%dq %s: replayed counts %+v, Table2 row %+v", cq, bs.Short, r.Counts, rows[i].Counts)
			}
			i++
			digestResult(h, fmt.Sprintf("%dq %s", cq, bs.Short), r)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != table2CompileDigest {
		t.Errorf("Table II compiled-output digest = %s, want %s", got, table2CompileDigest)
	}
}

func TestLinkAwareCompiledOutputDigest(t *testing.T) {
	cfg := QuickConfig(6)
	spec, err := cfg.scn().SpecForQubits(20)
	if err != nil {
		t.Fatal(err)
	}
	dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: spec})
	opts := compiler.Options{EdgeCost: compiler.LinkAwareCost(dev, 4)}
	width := qbench.UtilizedQubits(dev.N)
	h := sha256.New()
	for _, bs := range qbench.Suite() {
		r, err := compiler.CompileWithOptions(bs.Generate(width, cfg.Seed+seedOffTable2Circuits), dev, opts)
		if err != nil {
			t.Fatalf("%s: %v", bs.Short, err)
		}
		digestResult(h, bs.Short, r)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != linkAwareCompileDigest {
		t.Errorf("link-aware compiled-output digest = %s, want %s", got, linkAwareCompileDigest)
	}
}
