package yield

import (
	"context"
	"math"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/runner"
	"chipletqc/internal/sampling"
	"chipletqc/internal/topo"
)

// scaledThresholds widens every Table I half-width; 1.5x puts a 12-qubit
// monolithic device at a mid yield where all estimators are cheap.
func scaledThresholds(scale float64) collision.Params {
	p := collision.DefaultParams()
	p.T1 *= scale
	p.T2 *= scale
	p.T3 *= scale
	p.T5 *= scale
	p.T6 *= scale
	p.T7 *= scale
	return p
}

// TestEstimatorsDeterministicAcrossWorkers extends the engine's
// determinism contract to the weighted estimators: a fixed-seed
// stratified or importance run must be bit-identical — estimate, trial
// count, ESS, CI — at any worker count, including the Neyman
// allocator's checkpoint-planned blocks.
func TestEstimatorsDeterministicAcrossWorkers(t *testing.T) {
	specs := []sampling.Spec{
		{Method: sampling.Stratified}, // Neyman allocation by default
		{Method: sampling.Stratified, Allocation: sampling.Proportional},
		{Method: sampling.Importance},
	}
	d := topo.MonolithicDevice(topo.MonolithicSpec(24))
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Params = scaledThresholds(1.2)
			cfg.Batch = 8000
			cfg.RelPrecision = 0.1
			cfg.Sampling = spec
			cfg.Workers = 1
			a := simulate(t, d, cfg)
			cfg.Workers = 8
			b := simulate(t, d, cfg)
			if a != b {
				t.Errorf("estimated result diverged across workers:\n%+v\n%+v", a, b)
			}
			if a.Estimator != spec.Method {
				t.Errorf("result estimator = %q, want %q", a.Estimator, spec.Method)
			}
		})
	}
}

// TestEstimatorsAgreeOnMidYield is the unbiasedness property test: the
// plain, stratified, and importance estimators run the same mid-yield
// device with independent randomness and must land within their
// combined confidence intervals of each other — and of the historical
// inline path, which the plain estimator must in fact reproduce
// bit-identically.
func TestEstimatorsAgreeOnMidYield(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	cfg := testConfig()
	cfg.Params = scaledThresholds(1.5)
	cfg.Batch = 30000

	inline := simulate(t, d, cfg)

	results := map[string]Result{}
	for _, method := range []string{sampling.Plain, sampling.Stratified, sampling.Importance} {
		c := cfg
		c.Sampling = sampling.Spec{Method: method}
		results[method] = simulate(t, d, c)
	}

	p := results[sampling.Plain]
	if p.Batch != inline.Batch || p.Free != inline.Free ||
		p.CILo != inline.CILo || p.CIHi != inline.CIHi {
		t.Errorf("plain estimator does not reproduce the inline path:\n%+v\n%+v", p, inline)
	}

	se := func(r Result) float64 { return r.HalfWidth() / 1.96 }
	methods := []string{sampling.Plain, sampling.Stratified, sampling.Importance}
	for i, a := range methods {
		ra := results[a]
		t.Logf("%-11s yield=%.5g ci=[%.5g, %.5g] ess=%.0f trials=%d",
			a, ra.Fraction(), ra.CILo, ra.CIHi, ra.ESS, ra.Batch)
		if ra.AuditFailures != 0 {
			t.Errorf("%s: %d audit failures, want 0", a, ra.AuditFailures)
		}
		if ra.Fraction() < ra.CILo || ra.Fraction() > ra.CIHi {
			t.Errorf("%s: point estimate %v outside its own CI [%v, %v]",
				a, ra.Fraction(), ra.CILo, ra.CIHi)
		}
		for _, b := range methods[i+1:] {
			rb := results[b]
			z := (ra.Fraction() - rb.Fraction()) / math.Hypot(se(ra), se(rb))
			if math.Abs(z) > 4 {
				t.Errorf("%s and %s disagree: %v vs %v (z = %.2f)",
					a, b, ra.Fraction(), rb.Fraction(), z)
			}
		}
	}
}

// TestEstimatedResultReportsProvenance pins the Result fields the
// estimated path adds: estimator name, weighted point estimate, and a
// positive effective sample size.
func TestEstimatedResultReportsProvenance(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	cfg := testConfig()
	cfg.Params = scaledThresholds(1.5)
	cfg.Batch = 2000
	cfg.Sampling = sampling.Spec{Method: sampling.Importance}
	res := simulate(t, d, cfg)
	if res.Estimator != sampling.Importance {
		t.Errorf("estimator = %q, want importance", res.Estimator)
	}
	if res.ESS <= 0 || res.ESS > float64(res.Batch) {
		t.Errorf("ess = %v, want in (0, %d]", res.ESS, res.Batch)
	}
	if res.Fraction() != res.Yield {
		t.Errorf("Fraction() = %v, want the weighted estimate %v", res.Fraction(), res.Yield)
	}
	if res.Batch != 2000 {
		t.Errorf("fixed-mode estimated run used %d trials, want the full batch", res.Batch)
	}
}

// TestSimulateRejectsBadSampling: an invalid spec or an unusable
// estimator configuration must surface as an error, not a panic or a
// silent fall-back to the inline path.
func TestSimulateRejectsBadSampling(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	cfg := testConfig()
	cfg.Sampling = sampling.Spec{Method: "bogus"}
	if _, err := Simulate(context.Background(), d, cfg); err == nil {
		t.Error("unknown sampling method should return an error")
	}
	cfg = testConfig()
	cfg.Model.Sigma = 0
	cfg.Sampling = sampling.Spec{Method: sampling.Importance}
	if _, err := Simulate(context.Background(), d, cfg); err == nil {
		t.Error("importance sampling with sigma = 0 should return an error")
	}
}

// TestResolveSamplingMethod pins the -sampling flag sentinels: ""
// inherits, "none"/"off" force the inline path, anything else selects
// that method at defaults.
func TestResolveSamplingMethod(t *testing.T) {
	scenario := sampling.Spec{Method: sampling.Importance, MinESS: 80}
	if got := ResolveSamplingMethod(scenario, ""); got != scenario {
		t.Errorf("empty override should inherit, got %+v", got)
	}
	for _, off := range []string{"none", "off"} {
		if got := ResolveSamplingMethod(scenario, off); !got.IsZero() {
			t.Errorf("%q should force the inline path, got %+v", off, got)
		}
	}
	if got := ResolveSamplingMethod(scenario, sampling.Stratified); got.Method != sampling.Stratified {
		t.Errorf("method override should replace the spec, got %+v", got)
	}
}

// constructedStub is a plain estimator that claims its samples are
// collision-free by construction but hands trial bad a colliding
// device (every qubit on one frequency); the other trials get the
// collision-free plan targets.
type constructedStub struct {
	sampling.Estimator
	mu  []float64
	bad int
}

func (constructedStub) FreeByConstruction() bool { return true }

func (e constructedStub) SampleInto(_ *runner.TrialRNG, i int, buf []float64) float64 {
	copy(buf, e.mu)
	if i == e.bad {
		for q := range buf {
			buf[q] = e.mu[0]
		}
	}
	return 0
}

// TestAuditFailureIsCounted: a construction-free estimator whose sample
// fails the engine's audit must surface in Result.AuditFailures, not
// only as an ordinary failed trial.
func TestAuditFailureIsCounted(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	cfg := testConfig()
	cfg.Batch = 500
	checker := collision.NewChecker(d, cfg.Params)
	mu := cfg.Model.Targets(d)
	if !checker.Free(mu) {
		t.Fatal("plan targets collide; the stub needs a collision-free default sample")
	}
	plain, err := sampling.New(sampling.Spec{Method: sampling.Plain}, d, cfg.Model, cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	est := constructedStub{Estimator: plain, mu: mu, bad: 137}
	res, err := simulateEstimated(context.Background(), d, cfg, checker, est, cfg.Batch, false, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.AuditFailures != 1 {
		t.Errorf("audit failures = %d, want 1", res.AuditFailures)
	}
	if res.Batch != cfg.Batch || res.Free != cfg.Batch-1 {
		t.Errorf("free %d of %d trials, want %d of %d", res.Free, res.Batch, cfg.Batch-1, cfg.Batch)
	}
}
