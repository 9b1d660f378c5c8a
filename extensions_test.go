package chipletqc

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestTunedFabModelFacade(t *testing.T) {
	m := DefaultTunedFabModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	dev := Monolithic(20)
	f := make([]float64, dev.N)
	st := m.SampleInto(newBenchRand(1), dev, f)
	if st.Tuned != dev.N {
		t.Errorf("tuned %d, want all %d", st.Tuned, dev.N)
	}
}

func TestAsymmetricFreqPlanFacade(t *testing.T) {
	p := AsymmetricFreqPlan(5.0, 0.05, 0.07)
	if p.Target(F0) != 5.0 || p.Target(F1) != 5.05 {
		t.Error("low targets wrong")
	}
	if math.Abs(p.Target(F2)-5.12) > 1e-12 {
		t.Errorf("F2 target = %v, want 5.12", p.Target(F2))
	}
	dev := Monolithic(20)
	res := must(SimulateYieldWithPlan(context.Background(), dev, p, YieldOptions{Sigma: Ptr(SigmaLaserTuned), Batch: 300, Seed: 3}))
	if res.Fraction() <= 0 || res.Fraction() > 1 {
		t.Errorf("yield = %v", res.Fraction())
	}
}

func TestSymmetricStepBeatsAsymmetricNeighbours(t *testing.T) {
	// The future-work exploration's answer in this model: the paper's
	// symmetric 0.06 GHz spacing beats skewed variants.
	dev := Monolithic(60)
	sym := must(SimulateYieldWithPlan(context.Background(), dev, AsymmetricFreqPlan(5, 0.06, 0.06), YieldOptions{Sigma: Ptr(SigmaLaserTuned), Batch: 1500, Seed: 5}))
	skewA := must(SimulateYieldWithPlan(context.Background(), dev, AsymmetricFreqPlan(5, 0.05, 0.07), YieldOptions{Sigma: Ptr(SigmaLaserTuned), Batch: 1500, Seed: 5}))
	skewB := must(SimulateYieldWithPlan(context.Background(), dev, AsymmetricFreqPlan(5, 0.07, 0.05), YieldOptions{Sigma: Ptr(SigmaLaserTuned), Batch: 1500, Seed: 5}))
	if sym.Fraction() < skewA.Fraction() || sym.Fraction() < skewB.Fraction() {
		t.Errorf("symmetric %v should beat skews %v, %v",
			sym.Fraction(), skewA.Fraction(), skewB.Fraction())
	}
}

func TestCompileWithOptionsFacade(t *testing.T) {
	dev, err := MCM(2, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	c := DecomposeCircuit(GHZ(UtilizedQubits(dev.N)))
	res, err := CompileWithOptions(c, dev, CompileOptions{EdgeCost: LinkAwareCost(dev, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Compiled.Gates {
		if g.IsTwoQubit() && !dev.G.HasEdge(int(g.Qubits()[0]), int(g.Qubits()[1])) {
			t.Fatalf("unrouted gate %v", g)
		}
	}
}

func TestErrorAwareCostFacade(t *testing.T) {
	dev := Monolithic(20)
	f := SampleFrequencies(2, DefaultFabModel(), dev)
	a := AssignErrors(3, dev, f, NewDetuningModel(4))
	cost := ErrorAwareCost(a)
	e := dev.G.Edges()[0]
	if c := cost(e.U, e.V); c <= 0 {
		t.Errorf("edge cost = %v, want positive", c)
	}
}

func TestRaysFacade(t *testing.T) {
	mcmDev, err := MCM(3, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	mono := Monolithic(180)
	mcmRes, monoRes, isolation := CompareRays(mcmDev, mono, DefaultRayConfig(5))
	if isolation <= 1 {
		t.Errorf("isolation = %v, want > 1", isolation)
	}
	if mcmRes.MeanCorrupted >= monoRes.MeanCorrupted {
		t.Error("MCM should confine corruption")
	}
	solo := SimulateRays(mono, RayConfig{Radius: 3, Events: 100, Seed: 6})
	if solo.Events != 100 {
		t.Errorf("events = %d", solo.Events)
	}
}

func TestQASMFacadeRoundTrip(t *testing.T) {
	c := GHZ(4)
	text := QASM(c)
	if !strings.Contains(text, "qreg q[4];") {
		t.Errorf("QASM missing qreg: %s", text)
	}
	parsed, err := ReadQASM(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Gates) != len(c.Gates) {
		t.Errorf("round trip gates %d != %d", len(parsed.Gates), len(c.Gates))
	}
	var sb strings.Builder
	if err := WriteQASM(c, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != text {
		t.Error("WriteQASM and QASM disagree")
	}
}

func TestECCFacade(t *testing.T) {
	dev := Monolithic(20)
	f := SampleFrequencies(11, DefaultFabModel(), dev)
	a := AssignErrors(12, dev, f, NewDetuningModel(13))
	rep := AnalyzeECC(dev, a, HeavyHexECCThreshold)
	if rep.Couplings != dev.G.M() {
		t.Errorf("couplings = %d, want %d", rep.Couplings, dev.G.M())
	}
	if rep.Qualifies() {
		t.Error("state-of-art errors should not qualify for the heavy-hex code")
	}
	if d, err := RecommendCodeDistance(0.0005, HeavyHexECCThreshold, 1e-9); err != nil || d < 3 || d%2 == 0 {
		t.Errorf("distance = %d, err %v", d, err)
	}
	mcmDev, err := MCM(2, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	fm := SampleFrequencies(14, DefaultFabModel(), mcmDev)
	am := AssignErrors(15, mcmDev, fm, NewDetuningModel(16))
	cds := AdaptiveCodeDistances(mcmDev, am, 0.05, 1e-6)
	if len(cds) != 4 {
		t.Errorf("chip distances = %d, want 4", len(cds))
	}
}

func TestAnalyticYieldFacade(t *testing.T) {
	dev := Monolithic(20)
	plan := AsymmetricFreqPlan(5.0, 0.06, 0.06)
	y := AnalyticYield(dev, plan, SigmaLaserTuned)
	if y < 0.4 || y > 0.9 {
		t.Errorf("analytic 20q yield = %v, want ~0.65", y)
	}
	mc := simulateYield(t, dev, YieldOptions{Batch: 2000, Seed: 1}).Fraction()
	if math.Abs(y-mc) > 0.12 {
		t.Errorf("analytic %v far from MC %v", y, mc)
	}
}

func TestOptimizeAllocationFacade(t *testing.T) {
	dev := Monolithic(10)
	res := OptimizeAllocation(dev, SigmaLaserTuned, 3000, 2)
	if res.LogYield < res.PatternLogYield {
		t.Error("optimiser should never end below the pattern")
	}
	if res.Improvement() > 1.1 {
		t.Errorf("pattern should be near-optimal, improvement %v", res.Improvement())
	}
}

func TestSearchStepsFacade(t *testing.T) {
	dev := Monolithic(60)
	lo, hi, y := SearchSteps(dev, SigmaLaserTuned, []float64{0.04, 0.05, 0.06, 0.07})
	if lo != 0.06 || hi != 0.06 {
		t.Errorf("best steps %v/%v, want symmetric 0.06", lo, hi)
	}
	if y <= 0 {
		t.Errorf("yield %v", y)
	}
}
