package ecc

import (
	"math"
	"testing"

	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/runner"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
)

// uniformAssignment gives every coupling the same error.
func uniformAssignment(d *topo.Device, e float64) noise.Assignment {
	errs := map[graph.Edge]float64{}
	for _, ed := range d.G.Edges() {
		errs[ed] = e
	}
	return noise.Assignment{Err: errs}
}

func TestAnalyzeUniform(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	rep := Analyze(d, uniformAssignment(d, 0.003), HeavyHexThreshold)
	if !rep.Qualifies() {
		t.Error("0.3% errors should qualify under a 0.45% threshold")
	}
	if rep.BelowFraction() != 1 {
		t.Errorf("below fraction = %v", rep.BelowFraction())
	}
	if math.Abs(rep.MeanError-0.003) > 1e-12 || math.Abs(rep.WorstError-0.003) > 1e-12 {
		t.Errorf("mean/worst = %v/%v", rep.MeanError, rep.WorstError)
	}

	rep = Analyze(d, uniformAssignment(d, 0.02), HeavyHexThreshold)
	if rep.Qualifies() || rep.Below != 0 {
		t.Error("2% errors must not qualify")
	}
}

func TestAnalyzePerChipFractions(t *testing.T) {
	// Two chips: make chip 0's couplings good and chip 1's bad.
	g := mcm.Grid{Rows: 1, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}
	d := mcm.MustBuild(g)
	errs := map[graph.Edge]float64{}
	for _, e := range d.G.Edges() {
		if d.ChipOf[e.U] == 0 && d.ChipOf[e.V] == 0 {
			errs[e] = 0.001
		} else {
			errs[e] = 0.02
		}
	}
	rep := Analyze(d, noise.Assignment{Err: errs}, HeavyHexThreshold)
	if len(rep.ChipBelowFraction) != 2 {
		t.Fatalf("chip fractions = %v", rep.ChipBelowFraction)
	}
	if rep.ChipBelowFraction[0] < 0.8 {
		t.Errorf("chip 0 fraction = %v, want high", rep.ChipBelowFraction[0])
	}
	if rep.ChipBelowFraction[1] > 0.1 {
		t.Errorf("chip 1 fraction = %v, want ~0", rep.ChipBelowFraction[1])
	}
}

func TestAnalyzePanicsOnBadThreshold(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Analyze(d, uniformAssignment(d, 0.001), 0)
}

func TestRecommendDistance(t *testing.T) {
	// p = pth/10: each distance step buys a 10x logical suppression
	// per (d+1)/2, so target 1e-6 needs (d+1)/2 >= 6 -> d = 11.
	d, err := RecommendDistance(0.00045, 0.0045, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if d != 11 {
		t.Errorf("distance = %d, want 11", d)
	}
	// Floor at 3.
	d, err = RecommendDistance(1e-6, 0.0045, 0.1)
	if err != nil || d != 3 {
		t.Errorf("distance = %d err %v, want 3", d, err)
	}
	// Distances are always odd.
	for _, p := range []float64{0.0001, 0.0005, 0.001, 0.002, 0.004} {
		d, err := RecommendDistance(p, 0.0045, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if d%2 == 0 {
			t.Errorf("even distance %d for p=%v", d, p)
		}
	}
}

func TestRecommendDistanceErrors(t *testing.T) {
	if _, err := RecommendDistance(0.01, 0.0045, 1e-6); err != ErrAboveThreshold {
		t.Errorf("above-threshold err = %v", err)
	}
	for _, bad := range [][3]float64{
		{0, 0.0045, 1e-6},
		{0.001, 0, 1e-6},
		{0.001, 0.0045, 0},
		{0.001, 0.0045, 1},
	} {
		if _, err := RecommendDistance(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("parameters %v should error", bad)
		}
	}
}

func TestAdaptiveDistances(t *testing.T) {
	g := mcm.Grid{Rows: 1, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}
	d := mcm.MustBuild(g)
	// Chip 0 good (needs small distance), chip 1 close to threshold
	// (needs a larger distance).
	errs := map[graph.Edge]float64{}
	for _, e := range d.G.Edges() {
		if d.ChipOf[e.U] == 0 && d.ChipOf[e.V] == 0 {
			errs[e] = 0.0002
		} else {
			errs[e] = 0.003
		}
	}
	cds := AdaptiveDistances(d, noise.Assignment{Err: errs}, HeavyHexThreshold, 1e-9)
	if len(cds) != 2 {
		t.Fatalf("chip distances = %v", cds)
	}
	if cds[0].AboveThreshold || cds[1].AboveThreshold {
		t.Fatal("both chips are below threshold")
	}
	if cds[0].Distance >= cds[1].Distance {
		t.Errorf("good chip distance %d should be below noisy chip %d",
			cds[0].Distance, cds[1].Distance)
	}
	min, max, failing := DistanceSpread(cds)
	if failing != 0 || min != cds[0].Distance || max != cds[1].Distance {
		t.Errorf("spread = %d %d %d", min, max, failing)
	}
}

func TestAdaptiveDistancesAboveThreshold(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	cds := AdaptiveDistances(d, uniformAssignment(d, 0.02), HeavyHexThreshold, 1e-6)
	if !cds[0].AboveThreshold || cds[0].Distance != 0 {
		t.Errorf("2%% errors should fail: %+v", cds[0])
	}
	min, max, failing := DistanceSpread(cds)
	if failing != 1 || min != 0 || max != 0 {
		t.Errorf("spread = %d %d %d", min, max, failing)
	}
}

func TestRealisticDeviceNeedsBetterGates(t *testing.T) {
	// Today's ~1-2% errors sit far above the 0.45% threshold — the
	// paper's motivation for improving CR fidelity.
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 4, Width: 12})
	r := runner.NewTrialRNG().At(3, 0)
	f := fab.DefaultModel().Sample(r.Rand(), dev)
	a := noise.Assign(r, dev, f, scenario.Paper().DetuningModel(4), noise.DefaultLinkModel())
	rep := Analyze(dev, a, HeavyHexThreshold)
	if rep.Qualifies() {
		t.Error("state-of-art errors should not qualify for the heavy-hex code")
	}
	if rep.MeanError < 0.005 {
		t.Errorf("mean error = %v, expected >= 0.5%%", rep.MeanError)
	}
	if got := meanCouplingError(a); math.Abs(got-rep.MeanError) > 1e-12 {
		t.Errorf("mean mismatch: %v vs %v", got, rep.MeanError)
	}
}
