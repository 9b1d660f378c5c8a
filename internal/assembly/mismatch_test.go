package assembly_test

import (
	"context"
	"testing"

	"chipletqc/internal/assembly"
	"chipletqc/internal/collision"
	"chipletqc/internal/mcm"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
)

// TestAssembleUnderOtherScenarioChecksEverything: a batch fabricated
// under relaxed-thresholds holds dies that fail the paper's Table I, so
// assembling it under paper must check every criterion, not only the
// seams: every module is collision-free under a full paper check, and
// the modules equal those of a hand-built copy of the bin, which
// records no KGD params.
func TestAssembleUnderOtherScenarioChecksEverything(t *testing.T) {
	relaxed, err := scenario.Lookup(scenario.RelaxedThresholdsName)
	if err != nil {
		t.Fatal(err)
	}
	paper := scenario.Paper()
	ctx := context.Background()
	spec := topo.ChipSpec{DenseRows: 1, Width: 8}
	b, err := assembly.Fabricate(ctx, spec, 600, relaxed.BatchConfig(8, relaxed.DetuningModel(8), 0))
	if err != nil {
		t.Fatal(err)
	}
	chipCheck := collision.NewChecker(topo.MonolithicDevice(spec), paper.Params)
	failing := 0
	for _, c := range b.Free {
		if !chipCheck.Free(c.Freq) {
			failing++
		}
	}
	if failing*10 < len(b.Free) {
		t.Fatalf("only %d of %d relaxed-KGD dies fail the paper thresholds; the test needs at least a tenth", failing, len(b.Free))
	}

	for _, g := range []mcm.Grid{{Rows: 1, Cols: 2, Spec: spec}, {Rows: 2, Cols: 3, Spec: spec}} {
		cfg := paper.AssembleConfig(5)
		mods, st, err := assembly.Assemble(ctx, b, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(mods) == 0 {
			t.Fatalf("%v: no modules", g)
		}
		full := collision.NewChecker(mcm.MustBuild(g), paper.Params)
		for i, m := range mods {
			if v := full.Violations(m.Freq); len(v) > 0 {
				t.Fatalf("%v module %d: %v", g, i, v[0])
			}
		}
		hand := &assembly.Batch{Spec: b.Spec, Chip: b.Chip, Size: b.Size, Free: b.Free}
		ref, refSt, err := assembly.Assemble(ctx, hand, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st != refSt || len(mods) != len(ref) {
			t.Fatalf("%v: %d modules (%+v), hand-built bin %d (%+v)", g, len(mods), st, len(ref), refSt)
		}
		for i := range ref {
			for j, c := range ref[i].Members {
				if mods[i].Members[j] != c || mods[i].EAvg() != ref[i].EAvg() {
					t.Fatalf("%v module %d differs from the hand-built bin's", g, i)
				}
			}
		}
		if got, err := assembly.AssembleStats(ctx, b, g, cfg); err != nil || got != st {
			t.Errorf("%v: AssembleStats = %+v, %v; want %+v", g, got, err, st)
		}
	}
}
