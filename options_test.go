package chipletqc

import (
	"context"
	"errors"
	"math"
	"testing"
)

// Regression tests for the zero-value option bug of the v0 facade: the
// boolean `> 0` guards silently swallowed legitimate explicit zeros
// (LinkMean: 0, BondFailureScale: 0, Sigma: 0, MaxReshuffles: 0). The
// pointer-or-sentinel options make them expressible; these tests prove
// each explicit zero actually takes effect.

func TestAssembleOptionsLinkMeanZeroTakesEffect(t *testing.T) {
	batch := fabricateBatch(t, 20, 400, BatchOptions{Seed: 3})
	perfect, _ := assembleMCMs(t, batch, 2, 2, AssembleOptions{Seed: 3, LinkMean: Ptr(0.0)})
	if len(perfect) == 0 {
		t.Fatal("no modules assembled")
	}
	for i, m := range perfect {
		for e, v := range m.LinkErr {
			if v != 0 {
				t.Fatalf("module %d link %v error = %v, want exactly 0 (perfect links)", i, e, v)
			}
		}
	}
	// And it differs from the default (state-of-art 7.5%) outcome.
	def, _ := assembleMCMs(t, batch, 2, 2, AssembleOptions{Seed: 3})
	if perfect[0].EAvg() >= def[0].EAvg() {
		t.Errorf("perfect links EAvg %v should beat default %v",
			perfect[0].EAvg(), def[0].EAvg())
	}
}

func TestAssembleOptionsBondFailureScaleZeroTakesEffect(t *testing.T) {
	batch := fabricateBatch(t, 20, 400, BatchOptions{Seed: 4})
	_, perfect := assembleMCMs(t, batch, 3, 3, AssembleOptions{Seed: 4, BondFailureScale: Ptr(0.0)})
	if perfect.MCMs == 0 {
		t.Fatal("no modules assembled")
	}
	// Zero bump-bond failure: post-assembly yield equals assembly yield
	// exactly (BondSurvival == 1).
	if perfect.PostAssemblyYield != perfect.AssemblyYield {
		t.Errorf("scale 0: post-assembly yield %v != assembly yield %v",
			perfect.PostAssemblyYield, perfect.AssemblyYield)
	}
	// The v0 API silently mapped 0 back to the nominal scale 1; nominal
	// must strictly reduce yield on a linked system, so equality above
	// proves the zero took effect.
	_, nominal := assembleMCMs(t, batch, 3, 3, AssembleOptions{Seed: 4})
	if nominal.PostAssemblyYield >= nominal.AssemblyYield {
		t.Errorf("nominal bonding should lose yield: post %v vs assembly %v",
			nominal.PostAssemblyYield, nominal.AssemblyYield)
	}
}

func TestAssembleOptionsMaxReshufflesZeroTakesEffect(t *testing.T) {
	batch := fabricateBatch(t, 10, 600, BatchOptions{Seed: 5})
	_, none := assembleMCMs(t, batch, 3, 3, AssembleOptions{Seed: 5, MaxReshuffles: Ptr(0)})
	_, def := assembleMCMs(t, batch, 3, 3, AssembleOptions{Seed: 5})
	// Without reshuffles a colliding subset is abandoned immediately, so
	// the zero-budget run can never assemble more than the default.
	if none.MCMs > def.MCMs {
		t.Errorf("0 reshuffles assembled %d MCMs, more than default's %d", none.MCMs, def.MCMs)
	}
}

func TestYieldOptionsSigmaZeroTakesEffect(t *testing.T) {
	// Explicit Sigma 0 is noise-free fabrication: every device is
	// collision-free. The v0 API silently fell back to SigmaLaserTuned.
	res := simulateYield(t, Monolithic(60), YieldOptions{Batch: 100, Seed: 1, Sigma: Ptr(0.0)})
	if res.Fraction() != 1 {
		t.Errorf("sigma 0 yield = %v, want exactly 1", res.Fraction())
	}
	def := simulateYield(t, Monolithic(60), YieldOptions{Batch: 100, Seed: 1})
	if def.Fraction() >= 1 {
		t.Errorf("default sigma should collide sometimes at 60q, yield %v", def.Fraction())
	}
}

func TestBatchOptionsSigmaZeroTakesEffect(t *testing.T) {
	b := fabricateBatch(t, 20, 100, BatchOptions{Seed: 1, Sigma: Ptr(0.0)})
	if b.Yield() != 1 {
		t.Errorf("sigma 0 chiplet yield = %v, want exactly 1", b.Yield())
	}
}

func TestOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := SimulateYield(ctx, Monolithic(20), YieldOptions{Sigma: Ptr(-0.1)}); err == nil {
		t.Error("negative Sigma should fail validation")
	}
	if _, err := SimulateYield(ctx, Monolithic(20), YieldOptions{Batch: -5}); err == nil {
		t.Error("negative Batch should fail validation")
	}
	if _, err := SimulateYield(ctx, Monolithic(20), YieldOptions{Precision: Ptr(-1.0)}); err == nil {
		t.Error("negative Precision should fail validation")
	}
	for _, o := range []YieldOptions{
		{Precision: Ptr(math.NaN())},
		{Precision: Ptr(math.Inf(1))},
		{RelPrecision: Ptr(math.NaN())},
		{RelPrecision: Ptr(math.Inf(1))},
		{Sampling: "bogus"},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want an error", o)
		}
	}
	if _, err := FabricateBatch(ctx, 20, 10, BatchOptions{Sigma: Ptr(-1.0)}); err == nil {
		t.Error("negative batch Sigma should fail validation")
	}
	batch := fabricateBatch(t, 20, 50, BatchOptions{Seed: 1})
	if _, _, err := AssembleMCMs(ctx, batch, 2, 2, AssembleOptions{LinkMean: Ptr(-0.5)}); err == nil {
		t.Error("negative LinkMean should fail validation")
	}
	if _, _, err := AssembleMCMs(ctx, batch, 2, 2, AssembleOptions{BondFailureScale: Ptr(-1.0)}); err == nil {
		t.Error("negative BondFailureScale should fail validation")
	}
	if _, _, err := AssembleMCMs(ctx, batch, 2, 2, AssembleOptions{MaxReshuffles: Ptr(-1)}); err == nil {
		t.Error("negative MaxReshuffles should fail validation")
	}
}

func TestFacadeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateYield(ctx, Monolithic(100), YieldOptions{Batch: 10000}); !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateYield err = %v, want context.Canceled", err)
	}
	if _, err := FabricateBatch(ctx, 20, 10000, BatchOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("FabricateBatch err = %v, want context.Canceled", err)
	}
	batch := fabricateBatch(t, 20, 100, BatchOptions{Seed: 1})
	if _, _, err := AssembleMCMs(ctx, batch, 2, 2, AssembleOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("AssembleMCMs err = %v, want context.Canceled", err)
	}
	if _, err := Fig8(ctx, QuickExperimentConfig(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("Fig8 err = %v, want context.Canceled", err)
	}
}

// TestExperimentRegistryFacade exercises the public registry surface:
// enumeration, lookup, and a run through a registered experiment.
func TestExperimentRegistryFacade(t *testing.T) {
	names := ExperimentNames()
	if len(names) < 12 {
		t.Fatalf("registry lists %d experiments: %v", len(names), names)
	}
	if _, ok := LookupExperiment("fig8"); !ok {
		t.Fatal("fig8 missing from registry")
	}
	exp, ok := LookupExperiment("fig2")
	if !ok {
		t.Fatal("fig2 missing from registry")
	}
	a, err := exp.Run(context.Background(), QuickExperimentConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "fig2" || a.Payload == nil || a.Fingerprint == "" {
		t.Errorf("artifact incomplete: %+v", a)
	}
	if a.Fingerprint != ConfigFingerprint(QuickExperimentConfig(1)) {
		t.Error("fingerprint mismatch with ConfigFingerprint")
	}
}
