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
// determinism contract to every estimator: a fixed-seed adaptive run
// must be bit-identical — estimate, trial count, ESS, CI — at any
// worker count. The zero spec and plain run the same counting loop, so
// they must also agree with each other on every count and bound.
func TestEstimatorsDeterministicAcrossWorkers(t *testing.T) {
	specs := []sampling.Spec{
		{},
		{Method: sampling.Plain},
		{Method: sampling.Importance},
	}
	d := topo.MonolithicDevice(topo.MonolithicSpec(24))
	byMethod := map[string][2]Result{}
	for _, spec := range specs {
		name := spec.String()
		if spec.IsZero() {
			name = "zero"
		}
		t.Run(name, func(t *testing.T) {
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
			byMethod[spec.Method] = [2]Result{a, b}
		})
	}
	zero, plain := byMethod[""], byMethod[sampling.Plain]
	for w, workers := range []int{1, 8} {
		z, p := zero[w], plain[w]
		if z.Batch != p.Batch || z.Free != p.Free || z.CILo != p.CILo || z.CIHi != p.CIHi {
			t.Errorf("workers=%d: zero spec and plain disagree:\n%+v\n%+v", workers, z, p)
		}
	}
}

// TestEstimatorsAgreeOnMidYield is the unbiasedness property test: the
// plain and importance estimators run the same mid-yield device with
// independent randomness and must land within their combined confidence
// intervals of each other — and plain must reproduce the zero spec's
// unlabelled counts bit-identically.
func TestEstimatorsAgreeOnMidYield(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(12))
	cfg := testConfig()
	cfg.Params = scaledThresholds(1.5)
	cfg.Batch = 30000

	zero := simulate(t, d, cfg)

	results := map[string]Result{}
	methods := []string{sampling.Plain, sampling.Importance}
	for _, method := range methods {
		c := cfg
		c.Sampling = sampling.Spec{Method: method}
		results[method] = simulate(t, d, c)
	}

	p := results[sampling.Plain]
	if p.Batch != zero.Batch || p.Free != zero.Free ||
		p.CILo != zero.CILo || p.CIHi != zero.CIHi {
		t.Errorf("plain estimator does not reproduce the zero spec:\n%+v\n%+v", p, zero)
	}

	se := func(r Result) float64 { return r.HalfWidth() / 1.96 }
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
// silent fall-back to plain counting.
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
// inherits, "none"/"off" force unlabelled plain counting, anything else selects
// that method at defaults.
func TestResolveSamplingMethod(t *testing.T) {
	scenario := sampling.Spec{Method: sampling.Importance, MinESS: 80}
	if got := ResolveSamplingMethod(scenario, ""); got != scenario {
		t.Errorf("empty override should inherit, got %+v", got)
	}
	for _, off := range []string{"none", "off"} {
		if got := ResolveSamplingMethod(scenario, off); !got.IsZero() {
			t.Errorf("%q should force the zero spec, got %+v", off, got)
		}
	}
	if got := ResolveSamplingMethod(scenario, sampling.Plain); got != (sampling.Spec{Method: sampling.Plain}) {
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
	res, err := simulateEstimated(context.Background(), d, cfg, checker, est)
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

// TestStopDecisionsPinned pins where adaptive runs stop, and what they
// report there, for every estimator under both precision targets on a
// mid-yield 12-qubit device and the paper's 100-qubit device. The zero
// spec, plain and importance share one stop rule and one loop, so a
// drift in either, or in plain's early-exit trial, shows here.
func TestStopDecisionsPinned(t *testing.T) {
	type want struct {
		batch, free int
		lo, hi      float64
		yield, ess  float64
	}
	cases := []struct {
		device, method, stop string
		want                 want
	}{
		{"q12-x1.5", "", "precision", want{4000, 2767, 0.6772615589946333, 0.7058704945037663, 0, 0}},
		{"q12-x1.5", "", "relprecision", want{250, 156, 0.5625067230275577, 0.681740218697572, 0, 0}},
		{"q12-x1.5", "plain", "precision", want{4000, 2767, 0.6772615589946333, 0.7058704945037663, 0.69175, 4000}},
		{"q12-x1.5", "plain", "relprecision", want{250, 156, 0.5625067230275577, 0.681740218697572, 0.624, 250}},
		{"q12-x1.5", "importance", "precision", want{500, 500, 0.6913485307343422, 0.7206468108502074, 0.7059976707922748, 473.51754950913966}},
		{"q12-x1.5", "importance", "relprecision", want{250, 250, 0.6862537612952929, 0.7279635577427467, 0.7071086595190198, 236.65662563830793}},
		{"paper-100q", "", "precision", want{2000, 253, 0.11264405463575475, 0.14178797968334114, 0, 0}},
		{"paper-100q", "", "relprecision", want{4000, 545, 0.12596721578897255, 0.14723077920428532, 0, 0}},
		{"paper-100q", "plain", "precision", want{2000, 253, 0.11264405463575475, 0.14178797968334114, 0.1265, 2000}},
		{"paper-100q", "plain", "relprecision", want{4000, 545, 0.12596721578897255, 0.14723077920428532, 0.13625, 4000}},
		{"paper-100q", "importance", "precision", want{250, 250, 0.11889923722113459, 0.13541343311010345, 0.12715633516561903, 196.33610379592497}},
		{"paper-100q", "importance", "relprecision", want{250, 250, 0.11889923722113459, 0.13541343311010345, 0.12715633516561903, 196.33610379592497}},
	}
	for _, tc := range cases {
		cfg := testConfig()
		d := topo.MonolithicDevice(topo.MonolithicSpec(100))
		if tc.device == "q12-x1.5" {
			d = topo.MonolithicDevice(topo.MonolithicSpec(12))
			cfg.Params = scaledThresholds(1.5)
		}
		cfg.Batch = 20000
		if tc.stop == "precision" {
			cfg.Precision = 0.02
		} else {
			cfg.RelPrecision = 0.1
		}
		cfg.Sampling = sampling.Spec{Method: tc.method}
		r := simulate(t, d, cfg)
		got := want{r.Batch, r.Free, r.CILo, r.CIHi, r.Yield, r.ESS}
		if got != tc.want {
			t.Errorf("%s %q %s:\n got %+v\nwant %+v", tc.device, tc.method, tc.stop, got, tc.want)
		}
	}
}

// TestSweepHelpersReturnSimulateErrors: a configuration Simulate
// rejects (importance sampling needs a positive sigma) must fail every
// sweep helper, not come back as rows of zero-trial points.
func TestSweepHelpersReturnSimulateErrors(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig()
	cfg.Batch = 100
	cfg.Model.Sigma = 0
	cfg.Sampling = sampling.Spec{Method: sampling.Importance}
	if pts, err := MonolithicCurve(ctx, []int{10, 20}, cfg); err == nil {
		t.Errorf("MonolithicCurve: no error, points %+v", pts)
	}
	if res, err := ChipletYields(ctx, cfg); err == nil {
		t.Errorf("ChipletYields: no error, results %+v", res)
	}
	if cells, err := Sweep(ctx, []float64{0.06}, []float64{0}, []int{10}, cfg); err == nil {
		t.Errorf("Sweep: no error, cells %+v", cells)
	}
}
