package collision

import (
	"math"
	"testing"
	"testing/quick"

	"chipletqc/internal/topo"
)

// idealFreqs assigns every qubit its exact class target.
func idealFreqs(d *topo.Device, plan topo.FreqPlan) []float64 {
	f := make([]float64, d.N)
	for q := 0; q < d.N; q++ {
		f[q] = plan.Target(d.Class[q])
	}
	return f
}

func TestIdealAssignmentIsCollisionFree(t *testing.T) {
	// The paper's whole premise: the ideal three-frequency heavy-hex
	// pattern satisfies all seven criteria at step 0.06 GHz.
	for _, cs := range topo.Catalog {
		d := topo.MonolithicDevice(cs.Spec)
		ch := NewChecker(d, DefaultParams())
		f := idealFreqs(d, topo.DefaultFreqPlan)
		if !ch.Free(f) {
			vs := ch.Violations(f)
			t.Errorf("%v ideal assignment has %d violations, first: %v",
				cs.Spec, len(vs), vs[0])
		}
	}
}

func TestIdealAssignmentStepSweep(t *testing.T) {
	// Steps in the paper's swept range 0.04-0.07 GHz all leave the ideal
	// pattern collision-free (collisions come from fabrication noise).
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 4, Width: 12})
	ch := NewChecker(d, DefaultParams())
	for _, step := range []float64{0.04, 0.05, 0.06, 0.07} {
		f := idealFreqs(d, topo.FreqPlan{Base: 5.0, Step: step})
		if !ch.Free(f) {
			t.Errorf("step %.2f: ideal pattern not collision-free: %v",
				step, ch.Violations(f)[0])
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("Table I invalid: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(*Params){
		"zero anharmonicity":     func(p *Params) { p.Anharmonicity = 0 },
		"positive anharmonicity": func(p *Params) { p.Anharmonicity = 0.3 },
		"NaN anharmonicity":      func(p *Params) { p.Anharmonicity = nan },
		"-Inf anharmonicity":     func(p *Params) { p.Anharmonicity = -inf },
		"negative T5":            func(p *Params) { p.T5 = -0.001 },
		"NaN T1":                 func(p *Params) { p.T1 = nan },
		"+Inf T1":                func(p *Params) { p.T1 = inf },
		"NaN T7":                 func(p *Params) { p.T7 = nan },
	} {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
}

func TestType1NearNull(t *testing.T) {
	p := DefaultParams()
	if got := edgeViolationType(5.12, 5.12+0.016, &p); got != 1 {
		t.Errorf("detuning 0.016 should be type 1, got %d", got)
	}
	if got := edgeViolationType(5.12, 5.12-0.0169, &p); got != 1 {
		t.Errorf("detuning -0.0169 should be type 1, got %d", got)
	}
	if got := edgeViolationType(5.12, 5.06, &p); got != 0 {
		t.Errorf("healthy 0.06 detuning flagged: type %d", got)
	}
}

func TestType2HalfAnharmonicity(t *testing.T) {
	p := DefaultParams()
	// fi + a/2 = fj: control 5.12, a = -0.330 -> fj near 4.955.
	if got := edgeViolationType(5.12, 4.9551, &p); got != 2 {
		t.Errorf("half-anharmonicity resonance should be type 2, got %d", got)
	}
	if got := edgeViolationType(5.12, 4.9499, &p); got == 2 {
		t.Error("0.0051 away from resonance should not be type 2")
	}
}

func TestType3Anharmonicity(t *testing.T) {
	p := DefaultParams()
	// fi = fj + a: control 5.12, fj = 5.45 -> fi - fj = -0.33 = a.
	if got := edgeViolationType(5.12, 5.44, &p); got != 3 {
		t.Errorf("anharmonicity detuning should be type 3, got %d", got)
	}
	// Symmetric direction: fj = fi + a = 4.79.
	if got := edgeViolationType(5.12, 4.80, &p); got != 3 {
		t.Errorf("reverse anharmonicity detuning should be type 3, got %d", got)
	}
}

func TestType4StraddlingRegime(t *testing.T) {
	p := DefaultParams()
	// Target above control: fails.
	if got := edgeViolationType(5.0, 5.05, &p); got != 4 {
		t.Errorf("target above control should be type 4, got %d", got)
	}
	// Target far below the straddle (below fi + a, and outside type-3
	// band): 5.12 - 0.33 - 0.05 = 4.74.
	if got := edgeViolationType(5.12, 4.74, &p); got != 4 {
		t.Errorf("target below straddle should be type 4, got %d", got)
	}
	// Target inside the straddle: fine.
	if got := edgeViolationType(5.12, 5.0, &p); got != 0 {
		t.Errorf("target inside straddle flagged: type %d", got)
	}
}

func TestType5TargetsNearResonant(t *testing.T) {
	p := DefaultParams()
	if got := pairViolationType(5.12, 5.0, 5.012, &p); got != 5 {
		t.Errorf("near-resonant targets should be type 5, got %d", got)
	}
	if got := pairViolationType(5.12, 5.0, 5.06, &p); got != 0 {
		t.Errorf("distinct targets flagged: type %d", got)
	}
}

func TestType6TargetAnharmonicity(t *testing.T) {
	p := DefaultParams()
	// fj = fk + a: fj = 5.0, fk = 5.33.
	if got := pairViolationType(5.7, 5.0, 5.33, &p); got != 6 {
		t.Errorf("target anharmonicity gap should be type 6, got %d", got)
	}
	// Mirrored: fj + a = fk.
	if got := pairViolationType(5.7, 5.33, 5.0, &p); got != 6 {
		t.Errorf("mirrored target anharmonicity gap should be type 6, got %d", got)
	}
}

func TestType7TwoPhoton(t *testing.T) {
	p := DefaultParams()
	// 2fi + a = fj + fk: choose fi = 5.12, so fj + fk = 9.91.
	// Keep fj, fk individually clear of types 5/6.
	fj, fk := 4.87, 5.04
	if math.Abs(fj+fk-9.91) > 1e-9 {
		t.Fatal("test construction broken")
	}
	if got := pairViolationType(5.12, fj, fk, &p); got != 7 {
		t.Errorf("two-photon resonance should be type 7, got %d", got)
	}
}

func TestCheckerViolationsMatchFree(t *testing.T) {
	// Free(f) iff Violations(f) is empty — on perturbed assignments.
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	ch := NewChecker(d, DefaultParams())
	f := func(seed int64) bool {
		freqs := idealFreqs(d, topo.DefaultFreqPlan)
		// Deterministic pseudo-perturbation from the seed.
		s := seed
		for q := range freqs {
			s = s*6364136223846793005 + 1442695040888963407
			freqs[q] += float64(int8(s>>32)) / 127.0 * 0.05
		}
		return ch.Free(freqs) == (len(ch.Violations(freqs)) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCollisionForcesNotFree(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	ch := NewChecker(d, DefaultParams())
	f := idealFreqs(d, topo.DefaultFreqPlan)
	// Force a near-null collision on the first coupling.
	e := d.G.Edges()[0]
	f[e.U] = f[e.V]
	if ch.Free(f) {
		t.Fatal("identical neighbour frequencies must collide")
	}
	vs := ch.Violations(f)
	found := false
	for _, v := range vs {
		if v.Type == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a type 1 violation, got %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Type: 1, Control: 3, Target: 4, Target2: -1}
	if v.String() != "type 1 collision: q3-q4" {
		t.Errorf("pair string = %q", v.String())
	}
	v = Violation{Type: 5, Control: 1, Target: 2, Target2: 3}
	if v.String() != "type 5 collision: control q1 targets q2,q3" {
		t.Errorf("triple string = %q", v.String())
	}
}

func TestCheckerSizes(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	ch := NewChecker(d, DefaultParams())
	if ch.Edges() != d.G.M() {
		t.Errorf("checker edges = %d, want %d", ch.Edges(), d.G.M())
	}
	if ch.Pairs() != len(d.ControlPairs()) {
		t.Errorf("checker pairs = %d, want %d", ch.Pairs(), len(d.ControlPairs()))
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Property: widening every threshold can only turn Free from true to
	// false, never the reverse.
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	narrow := DefaultParams()
	wide := DefaultParams()
	wide.T1 *= 2
	wide.T2 *= 2
	wide.T3 *= 2
	wide.T5 *= 2
	wide.T6 *= 2
	wide.T7 *= 2
	chN := NewChecker(d, narrow)
	chW := NewChecker(d, wide)
	f := func(seed int64) bool {
		freqs := idealFreqs(d, topo.DefaultFreqPlan)
		s := seed
		for q := range freqs {
			s = s*6364136223846793005 + 1442695040888963407
			freqs[q] += float64(int8(s>>24)) / 127.0 * 0.03
		}
		if chW.Free(freqs) && !chN.Free(freqs) {
			return false // wide free implies narrow free
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
