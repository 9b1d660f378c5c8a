package sampling

import (
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

func TestGaussMassProperties(t *testing.T) {
	// Symmetric interval: P(-a < Z < a) = erf(a/sqrt2). This is the case
	// the straddling-zero branch must get right (erf is odd — the two
	// half-masses add, they do not cancel).
	for _, a := range []float64{0.1, 1, 2.5} {
		got, want := gaussMass(-a, a), math.Erf(a/math.Sqrt2)
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("gaussMass(-%g, %g) = %v, want erf = %v", a, a, got, want)
		}
	}
	if got := gaussMass(math.Inf(-1), math.Inf(1)); math.Abs(got-1) > 1e-15 {
		t.Errorf("full-line mass = %v, want 1", got)
	}
	// Additivity across a split point, including deep in a tail where
	// naive CDF differences would cancel catastrophically.
	splits := [][3]float64{{-1.3, 0.4, 2.2}, {-7, -6, -5}, {5, 6, 7}, {36, 37, 38}}
	for _, s := range splits {
		whole := gaussMass(s[0], s[2])
		parts := gaussMass(s[0], s[1]) + gaussMass(s[1], s[2])
		if whole <= 0 {
			t.Errorf("gaussMass(%g, %g) = %v, want positive", s[0], s[2], whole)
			continue
		}
		if rel := math.Abs(whole-parts) / whole; rel > 1e-12 {
			t.Errorf("gaussMass not additive at %v: whole %v vs parts %v (rel %v)",
				s, whole, parts, rel)
		}
	}
	if got := gaussMass(1.5, 1.5); got != 0 {
		t.Errorf("empty interval mass = %v, want 0", got)
	}
}

func TestGaussInterpInvertsMass(t *testing.T) {
	pieces := [][2]float64{
		{-3, -1}, {-0.5, 0.7}, {1, 2.5}, {4, 4.5},
		{math.Inf(-1), -2}, {2, math.Inf(1)}, {math.Inf(-1), math.Inf(1)},
	}
	for _, pc := range pieces {
		a, b := pc[0], pc[1]
		mass := gaussMass(a, b)
		for _, frac := range []float64{0.05, 0.5, 0.95} {
			rem := frac * mass
			z := gaussInterp(a, b, rem)
			if z < a || z > b || math.IsNaN(z) {
				t.Fatalf("gaussInterp(%g, %g, %g) = %v escapes the piece", a, b, rem, z)
			}
			if got := gaussMass(a, z); math.Abs(got-rem) > 1e-9*mass {
				t.Errorf("gaussInterp(%g, %g): mass below %v is %v, want %v", a, b, z, got, rem)
			}
		}
	}
}

// seqLogwSlack bounds how far a log weight may legitimately sit above
// zero: each per-qubit factor is a probability times the density ratio
// φ/g, which is 1 up to the tail table's interpolation error (≤ ~5e-5
// in the deepest cell, ~1e-7 in the bulk — see gausstab.go), so at n
// qubits the log weight can reach ~n·5e-5 without any construction
// bug. Anything past this slack means a factor genuinely exceeded 1.
const seqLogwSlack = 1e-2

// TestSequentialSamplesAreCollisionFree pins the free-by-construction
// property against the engine's independent checker — the proposal's
// support must be exactly the collision-free set — and checks the
// estimate is unbiased: it must agree with a plain Monte Carlo
// reference on a mid-yield configuration where plain is cheap.
func TestSequentialSamplesAreCollisionFree(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	m := fab.DefaultModel()
	params := scaledThresholds(1.5)
	checker := collision.NewChecker(d, params)
	buf := make([]float64, d.N)

	// Plain reference.
	r := rand.New(rand.NewSource(99))
	const nPlain = 200000
	succ := 0
	for i := 0; i < nPlain; i++ {
		for q := 0; q < d.N; q++ {
			buf[q] = m.Plan.Target(d.Class[q]) + m.Sigma*r.NormFloat64()
		}
		if checker.Free(buf) {
			succ++
		}
	}
	pPlain := float64(succ) / nPlain
	sePlain := math.Sqrt(pPlain * (1 - pPlain) / nPlain)

	est, err := New(Spec{Method: Importance}, d, m, params)
	if err != nil {
		t.Fatal(err)
	}
	e := est.(*importance)
	r2 := runner.NewTrialRNG().At(77, 0)
	const nSeq = 50000
	for i := 0; i < nSeq; i++ {
		logw := e.SampleInto(r2, i, buf)
		ok := !math.IsInf(logw, -1) && checker.Free(buf)
		if !math.IsInf(logw, -1) && !ok {
			t.Fatalf("trial %d: sequential sample not collision-free (construction bug)", i)
		}
		if logw > seqLogwSlack {
			t.Fatalf("trial %d: log weight %v > 0, but every factor is a probability", i, logw)
		}
		e.Observe(i, ok, logw)
	}
	pSeq, seSeq := e.estimate()
	z := (pSeq - pPlain) / math.Hypot(sePlain, seSeq)
	t.Logf("plain p=%.5g±%.2g  sequential p=%.5g±%.2g  z=%.2f  ess=%.0f",
		pPlain, sePlain, pSeq, seSeq, z, e.ess())
	if math.Abs(z) > 4 {
		t.Errorf("sequential estimate disagrees with plain reference: z = %.2f", z)
	}
	if e.ess() < DefaultMinESS {
		t.Errorf("ess = %.0f after %d mid-yield trials, want >= %v", e.ess(), nSeq, DefaultMinESS)
	}
}

// TestImportanceDeadEndIsZeroWeightFailure pins the dead-end contract:
// a trial whose partial assignment has no collision-free completion
// hands the engine a finite plan-target buffer (which the checker
// reports free), and the -Inf log weight must still count it as a
// zero-weight failure.
func TestImportanceDeadEndIsZeroWeightFailure(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	m := fab.DefaultModel()
	est, err := New(Spec{Method: Importance}, d, m, collision.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e := est.(*importance)
	e.Observe(0, true, 0)
	e.Observe(1, true, math.Inf(-1)) // dead end: checker said free, weight says no
	e.Observe(2, false, math.Inf(-1))
	snap := e.Snapshot(1.96)
	if snap.Successes != 1 {
		t.Errorf("successes = %d, want 1 (dead ends are failures)", snap.Successes)
	}
	if snap.Trials != 3 {
		t.Errorf("trials = %d, want 3 (dead ends still spend budget)", snap.Trials)
	}
	if math.IsNaN(snap.Yield) || snap.Yield <= 0 || snap.Yield > 1 {
		t.Errorf("yield = %v, want finite in (0, 1]", snap.Yield)
	}
}

// TestWeightedHalfWidthGuards pins the ESS stopping guard shared by
// both weighted estimators: HalfWidth must report +Inf — blocking
// adaptive stopping — until the effective sample size clears MinESS.
func TestWeightedHalfWidthGuards(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	m := fab.DefaultModel()
	est, err := New(Spec{Method: Importance, MinESS: 10}, d, m, collision.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e := est.(*importance)
	for i := 0; i < 5; i++ {
		e.Observe(i, true, -0.1)
	}
	if hw := e.HalfWidth(1.96); !math.IsInf(hw, 1) {
		t.Errorf("half-width = %v with ess below MinESS, want +Inf", hw)
	}
	for i := 5; i < 30; i++ {
		e.Observe(i, true, -0.1)
	}
	if hw := e.HalfWidth(1.96); math.IsInf(hw, 1) || math.IsNaN(hw) {
		t.Errorf("half-width = %v with ess above MinESS, want finite", hw)
	}
}

// FuzzEstimatorWeightsFinite drives both weighted estimators over
// fuzzed seeds and threshold scales: log weights must never be NaN or
// +Inf (a -Inf dead end is legal for importance), realised weights must
// stay in [0, 1] for the conditioned proposal, sampled buffers must be
// finite, and snapshots must stay inside [0, 1].
func FuzzEstimatorWeightsFinite(f *testing.F) {
	f.Add(int64(1), 1.0)
	f.Add(int64(7), 3.0)
	f.Add(int64(42), 0.5)
	f.Add(int64(99), 2.0)
	d := topo.MonolithicDevice(topo.MonolithicSpec(16))
	m := fab.DefaultModel()
	f.Fuzz(func(t *testing.T, seed int64, scale float64) {
		if math.IsNaN(scale) || scale < 0.1 || scale > 5 {
			t.Skip("threshold scale outside the physical regime")
		}
		params := scaledThresholds(scale)
		checker := collision.NewChecker(d, params)
		for _, spec := range []Spec{{Method: Plain}, {Method: Importance}} {
			est, err := New(spec, d, m, params)
			if err != nil {
				t.Fatal(err)
			}
			r := runner.NewTrialRNG().At(seed, 0)
			buf := make([]float64, d.N)
			const n = 200
			est.PlanBlock(0, n)
			for i := 0; i < n; i++ {
				logw := est.SampleInto(r, i, buf)
				if math.IsNaN(logw) || math.IsInf(logw, 1) {
					t.Fatalf("%s trial %d: log weight %v", spec.Method, i, logw)
				}
				if spec.Method == Importance && logw > seqLogwSlack {
					t.Fatalf("importance trial %d: weight %v > 1", i, math.Exp(logw))
				}
				for q, v := range buf {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s trial %d: non-finite frequency %v at qubit %d",
							spec.Method, i, v, q)
					}
				}
				ok := !math.IsInf(logw, -1) && checker.Free(buf)
				est.Observe(i, ok, logw)
			}
			snap := est.Snapshot(1.96)
			if math.IsNaN(snap.Yield) || snap.Yield < 0 {
				t.Fatalf("%s: yield estimate %v", spec.Method, snap.Yield)
			}
			if math.IsNaN(snap.ESS) || snap.ESS < 0 || snap.ESS > float64(n) {
				t.Fatalf("%s: ess %v outside [0, %d]", spec.Method, snap.ESS, n)
			}
			if snap.CILo < 0 || snap.CIHi > 1 || snap.CILo > snap.CIHi {
				t.Fatalf("%s: CI [%v, %v] outside [0, 1]", spec.Method, snap.CILo, snap.CIHi)
			}
		}
	})
}
