package assembly

import (
	"context"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/mcm"
	"chipletqc/internal/topo"
)

// TestSeamAssemblyMatchesFullCheck: assembling a known-good batch under
// its own KGD params checks only the seam criteria, and gives the same
// modules (members, placements, frequencies, link errors, E_avg) as a
// copy of the batch whose recorded params differ, which forces the
// full check. The count-only drain reports the same module count.
func TestSeamAssemblyMatchesFullCheck(t *testing.T) {
	odd := topo.ChipSpec{DenseRows: 1, Width: 8}
	even := topo.ChipSpec{DenseRows: 2, Width: 8}
	grids := []mcm.Grid{
		{Rows: 1, Cols: 2, Spec: odd},
		{Rows: 3, Cols: 3, Spec: odd},
		{Rows: 2, Cols: 3, Spec: even},
	}
	for _, seed := range []int64{4, 19} {
		batches := map[topo.ChipSpec]*Batch{
			odd:  fabricate(t, odd, 400, testBatchConfig(seed)),
			even: fabricate(t, even, 400, testBatchConfig(seed)),
		}
		for _, g := range grids {
			b, cfg := batches[g.Spec], testAssembleConfig(seed)
			full := *b
			other := cfg.Params
			other.T1 *= 2
			full.kgd = &other

			seamAsm, fullAsm := newAssembler(t, b, g, cfg), newAssembler(t, &full, g, cfg)
			if s, f := seamAsm.checker, fullAsm.checker; s.Edges() >= f.Edges() || s.Pairs() >= f.Pairs() {
				t.Fatalf("%v: the KGD batch compiled %d+%d criteria, the forced-full copy %d+%d; want the seam subset",
					g, s.Edges(), s.Pairs(), f.Edges(), f.Pairs())
			}
			got, want := take(t, seamAsm, 0), take(t, fullAsm, 0)
			if len(want) < 2 {
				t.Fatalf("%v seed %d: %d modules, need at least 2", g, seed, len(want))
			}
			if d := sameModules(got, want); d != "" {
				t.Fatalf("%v seed %d: seam-only vs full check: %s", g, seed, d)
			}
			st, err := AssembleStats(context.Background(), b, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, wantSt := assemble(t, &full, g, cfg); st != wantSt {
				t.Errorf("%v seed %d: AssembleStats %+v, Assemble %+v", g, seed, st, wantSt)
			}
		}
	}
}

// TestAssembleHandBuiltBatchChecksEverything: a batch that Fabricate
// did not build records no KGD params, so its modules get the full
// check: a colliding die in the bin is never placed.
func TestAssembleHandBuiltBatchChecksEverything(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 1, Width: 8}
	grid := mcm.Grid{Rows: 1, Cols: 2, Spec: spec}
	good := testBatch(t, spec, 200)
	bad := *good.Free[0]
	bad.ID = -1
	bad.Freq = make([]float64, len(bad.Freq)) // every coupling collides
	b := &Batch{Spec: spec, Chip: good.Chip, Size: good.Size, Free: append([]*Chiplet{&bad}, good.Free...)}
	mods, _ := assemble(t, b, grid, testAssembleConfig(3))
	if len(mods) == 0 {
		t.Fatal("no modules assembled")
	}
	full := collision.NewChecker(mcm.MustBuild(grid), testAssembleConfig(3).Params)
	for i, m := range mods {
		for _, c := range m.Members {
			if c.ID == -1 {
				t.Fatalf("module %d placed the colliding die", i)
			}
		}
		if !full.Free(m.Freq) {
			t.Fatalf("module %d is not collision-free", i)
		}
	}
}

// BenchmarkAssemble drains a 500-die batch of 10q chiplets into 4x5 and
// 7x7 modules, as Fig. 8 does for each of its grids.
func BenchmarkAssemble(b *testing.B) {
	spec := topo.ChipSpec{DenseRows: 1, Width: 8}
	batch := fabricate(b, spec, 500, testBatchConfig(1))
	for _, g := range []mcm.Grid{{Rows: 4, Cols: 5, Spec: spec}, {Rows: 7, Cols: 7, Spec: spec}} {
		b.Run(g.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				assemble(b, batch, g, testAssembleConfig(int64(i)))
			}
		})
	}
}
