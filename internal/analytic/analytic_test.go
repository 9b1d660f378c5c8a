package analytic

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/sampling"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

func TestPhi(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.975},
		{-1.96, 0.025},
		{5, 1},
	}
	for _, c := range cases {
		if got := phi(c.x); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// handDevice builds a single-chip device with the given classes and
// couplings.
func handDevice(classes []topo.Class, edges ...[2]int) *topo.Device {
	n := len(classes)
	d := &topo.Device{Name: fmt.Sprintf("hand-%d", n), N: n, Class: classes, IsBridge: make([]bool, n),
		Coord: make([][2]int, n), ChipOf: make([]int, n), Chips: 1, G: graph.New(n), Link: map[graph.Edge]bool{}}
	for _, e := range edges {
		d.G.AddEdge(e[0], e[1])
	}
	return d
}

// singleCouplingFree is the free probability of one coupling, derived
// by hand from the Table I predicates. With D = f_target − f_control ~
// N(delta, 2σ²), type 4 keeps D in [a, 0]; inside it type 3 forbids
// D ≤ a + T3, type 2 forbids |D − a/2| ≤ T2 and type 1 forbids
// D ≥ −T1 (the type 3 band at −a lies above the window). For thresholds
// that keep these bands apart, two free intervals remain.
func singleCouplingFree(delta, sigma float64, p collision.Params) float64 {
	a := p.Anharmonicity
	cdf := func(x float64) float64 { return 0.5 * math.Erfc((delta-x)/(2*sigma)) }
	return cdf(a/2-p.T2) - cdf(a+p.T3) + cdf(-p.T1) - cdf(a/2+p.T2)
}

// scaledParams returns Table I with every half-width scaled by s.
func scaledParams(s float64) collision.Params {
	p := collision.DefaultParams()
	p.T1, p.T2, p.T3, p.T5, p.T6, p.T7 = s*p.T1, s*p.T2, s*p.T3, s*p.T5, s*p.T6, s*p.T7
	return p
}

// TestSingleCouplingExact checks analytic against ground truth where
// the interval form is exact: one coupling, F1 control over an F0
// target 60 MHz below. Analytic must equal the hand-derived closed form,
// and plain and importance Monte Carlo must each agree with it within
// 4.5 standard errors, under paper, relaxed and 3x thresholds.
func TestSingleCouplingExact(t *testing.T) {
	d := handDevice([]topo.Class{topo.F1, topo.F0}, [2]int{0, 1})
	plan := topo.DefaultFreqPlan
	delta := plan.Target(topo.F0) - plan.Target(topo.F1)
	for _, th := range []struct {
		name string
		p    collision.Params
	}{{"paper", scaledParams(1)}, {"relaxed", scaledParams(0.5)}, {"3x", scaledParams(3)}} {
		p := th.p
		if a := p.Anharmonicity; !(a+p.T3 < a/2-p.T2 && a/2+p.T2 < -p.T1) {
			t.Fatalf("%s: Table I bands overlap; the closed form does not apply", th.name)
		}
		for _, sigma := range []float64{0.03, 0.06} {
			want := singleCouplingFree(delta, sigma, p)
			got := DeviceYield(d, plan, sigma, p)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s sigma=%v: analytic %.12f, closed form %.12f", th.name, sigma, got, want)
			}
			for _, method := range []string{sampling.Plain, sampling.Importance} {
				cfg := yield.Config{Batch: 1 << 20, Model: fab.Model{Plan: plan, Sigma: sigma}, Params: p, Seed: 1,
					Policy: yield.Policy{Sampling: sampling.Spec{Method: method}}}
				res, err := yield.Simulate(context.Background(), d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				se := res.HalfWidth() / 1.96
				t.Logf("%-7s sigma=%.3f exact=%.5f %-10s %.5f ± %.5f", th.name, sigma, want, method, res.Fraction(), se)
				if z := (res.Fraction() - want) / se; math.Abs(z) > 4.5 {
					t.Errorf("%s sigma=%v: %s yield %.5f vs exact %.5f (z = %.2f)",
						th.name, sigma, method, res.Fraction(), want, z)
				}
			}
		}
	}
}

// yieldCase bounds the analytic yield of a small hand-built device.
type yieldCase struct {
	name   string
	d      *topo.Device
	sigma  float64
	lo, hi float64
}

func checkYieldCases(t *testing.T, cases []yieldCase) {
	t.Helper()
	p := collision.DefaultParams()
	for _, c := range cases {
		if y := DeviceYield(c.d, topo.DefaultFreqPlan, c.sigma, p); y < c.lo || y > c.hi {
			t.Errorf("%s: yield %v, want in [%v, %v]", c.name, y, c.lo, c.hi)
		}
	}
}

// The paper's F2 -> F1 pair (5.12 control, 5.06 target), and equal
// targets: a near-certain type 1 collision.
func healthyPair() *topo.Device { return handDevice([]topo.Class{topo.F2, topo.F1}, [2]int{0, 1}) }
func equalPair() *topo.Device   { return handDevice([]topo.Class{topo.F2, topo.F2}, [2]int{0, 1}) }

// An F2 control over distinct F0/F1 targets, and over two F0 targets
// (a near-certain type 5 collision).
func healthyStar() *topo.Device {
	return handDevice([]topo.Class{topo.F2, topo.F0, topo.F1}, [2]int{0, 1}, [2]int{0, 2})
}
func sameTargetStar() *topo.Device {
	return handDevice([]topo.Class{topo.F2, topo.F0, topo.F0}, [2]int{0, 1}, [2]int{0, 2})
}

// TestEdgeFreeProbHealthyPair bounds the free probability of a single
// coupling: mostly free at laser-tuned spread, poor at raw spread and
// for equal targets.
func TestEdgeFreeProbHealthyPair(t *testing.T) {
	checkYieldCases(t, []yieldCase{
		{"healthy pair", healthyPair(), fab.SigmaLaserTuned, 0.95, 1},
		{"healthy pair at raw sigma", healthyPair(), fab.SigmaAsFabricated, 0, 0.6},
		{"equal targets", equalPair(), fab.SigmaLaserTuned, 0, 0.6},
	})
}

// TestPairFreeProb bounds the free probability of a control with two
// targets: healthy for distinct target classes, poor for equal ones.
func TestPairFreeProb(t *testing.T) {
	checkYieldCases(t, []yieldCase{
		{"healthy control pair", healthyStar(), fab.SigmaLaserTuned, 0.95, 1},
		{"same-class targets", sameTargetStar(), fab.SigmaLaserTuned, 0, 0.6},
	})
}

// TestDeviceLevelCases pins the zero-spread limit of the same devices,
// where the yield is an indicator.
func TestDeviceLevelCases(t *testing.T) {
	checkYieldCases(t, []yieldCase{
		{"healthy pair at zero sigma", healthyPair(), 0, 1, 1},
		{"healthy control pair at zero sigma", healthyStar(), 0, 1, 1},
		{"equal targets at zero sigma", equalPair(), 0, 0, 0},
		{"same-class targets at zero sigma", sameTargetStar(), 0, 0, 0},
	})
}

// TestZeroSigmaIsFreeIndicator: with no fabrication spread every
// qubit sits on its plan target, so the yield of any class assignment
// is 1 when collision.Checker.Free accepts the targets and 0 otherwise.
func TestZeroSigmaIsFreeIndicator(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	p := collision.DefaultParams()
	r := rand.New(rand.NewSource(1))
	classes := make([]topo.Class, d.N)
	free := 0
	for trial := 0; trial < 200; trial++ {
		// The pattern with up to two qubits moved to a random class.
		copy(classes, d.Class)
		for k := trial % 3; k > 0; k-- {
			classes[r.Intn(d.N)] = topo.Class(r.Intn(3))
		}
		cd := *d
		cd.Class = classes
		want := 0.0
		if collision.NewChecker(&cd, p).Free(fab.Model{Plan: topo.DefaultFreqPlan}.Targets(&cd)) {
			want = 1
			free++
		}
		if got := YieldForClasses(d, classes, topo.DefaultFreqPlan, 0, p); got != want {
			t.Fatalf("assignment %v: yield %v at zero sigma, want %v", classes, got, want)
		}
	}
	if free == 0 || free == 200 {
		t.Fatalf("%d of 200 random assignments are free; the check needs both outcomes", free)
	}
}

func TestAnalyticMatchesMonteCarlo(t *testing.T) {
	// The headline validation: analytic yield tracks MC yield across
	// chip sizes and precisions. Cases with rel > 0 are regression
	// cases at high spread, run with enough trials to hold analytic to
	// a relative bound.
	params := collision.DefaultParams()
	cases := []struct {
		spec   topo.ChipSpec
		sigma  float64
		trials int
		rel    float64
	}{
		{topo.ChipSpec{DenseRows: 1, Width: 8}, fab.SigmaLaserTuned, 4000, 0},
		{topo.ChipSpec{DenseRows: 2, Width: 8}, fab.SigmaLaserTuned, 4000, 0},
		{topo.ChipSpec{DenseRows: 4, Width: 12}, fab.SigmaLaserTuned, 4000, 0},
		{topo.ChipSpec{DenseRows: 6, Width: 12}, fab.SigmaLaserTuned, 4000, 0},
		{topo.ChipSpec{DenseRows: 2, Width: 8}, fab.SigmaScalingGoal, 4000, 0},
		{topo.ChipSpec{DenseRows: 1, Width: 8}, 0.03, 100000, 0.10},
		{topo.ChipSpec{DenseRows: 2, Width: 8}, 0.03, 100000, 0.10},
	}
	for _, c := range cases {
		d := topo.MonolithicDevice(c.spec)
		got := DeviceYield(d, topo.DefaultFreqPlan, c.sigma, params)
		cfg := scenario.Paper().YieldConfig(c.trials, 1)
		cfg.Model.Sigma = c.sigma
		mcRes, err := yield.Simulate(context.Background(), d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mc := mcRes.Fraction()
		// Groups of criteria share qubits and are positively correlated,
		// so the product over groups underestimates, with the gap
		// growing with device size: accept 25% relative or 0.03
		// absolute, and require the analytic value not to *overshoot*
		// MC by more than noise.
		diff := math.Abs(got - mc)
		if diff > 0.03 && diff > 0.25*mc {
			t.Errorf("%v sigma=%v: analytic %v vs MC %v", c.spec, c.sigma, got, mc)
		}
		if got > mc+0.04 {
			t.Errorf("%v sigma=%v: analytic %v overshoots MC %v", c.spec, c.sigma, got, mc)
		}
		if c.rel > 0 && diff > c.rel*mc {
			t.Errorf("%v sigma=%v: analytic %v is more than %v relative from MC %v", c.spec, c.sigma, got, c.rel, mc)
		}
	}
}

func TestLogYieldMatchesYield(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	params := collision.DefaultParams()
	classes := append([]topo.Class(nil), d.Class...)
	y := YieldForClasses(d, classes, topo.DefaultFreqPlan, fab.SigmaLaserTuned, params)
	ly := LogYieldForClasses(d, classes, topo.DefaultFreqPlan, fab.SigmaLaserTuned, params)
	if math.Abs(math.Log(y)-ly) > 1e-9 {
		t.Errorf("log mismatch: %v vs %v", math.Log(y), ly)
	}
}

func TestDegenerateAssignmentYieldsZero(t *testing.T) {
	// All qubits in one class: every coupling is a guaranteed near-null
	// at sigma -> 0, so yield must vanish.
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	classes := make([]topo.Class, d.N) // all F0
	y := YieldForClasses(d, classes, topo.DefaultFreqPlan, 1e-6, collision.DefaultParams())
	if y != 0 {
		t.Errorf("degenerate assignment yield = %v, want 0", y)
	}
}

func TestAnalyticYieldMonotoneInSigma(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 4, Width: 8})
	params := collision.DefaultParams()
	prev := 1.1
	for _, sigma := range []float64{0.004, 0.008, 0.014, 0.03, 0.06} {
		y := DeviceYield(d, topo.DefaultFreqPlan, sigma, params)
		if y >= prev {
			t.Errorf("yield should fall with sigma: %v at %v (prev %v)", y, sigma, prev)
		}
		prev = y
	}
}
