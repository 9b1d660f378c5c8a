// Package yield runs the Monte Carlo collision-free yield simulation of
// paper Section IV-B: virtual heavy-hex devices are fabricated in batches
// with per-qubit frequency noise, each realisation is evaluated against
// the Table I collision criteria, and the collision-free fraction is the
// yield.
//
// Simulations are deterministic: the result for a given (device, config)
// depends only on cfg.Seed, regardless of worker count, because each
// batch element derives its own RNG stream from the seed and its index.
// That holds for the adaptive mode too: early-stop decisions are made
// only at fixed checkpoint trial counts, so the executed trial count is
// itself worker-count invariant.
//
// Every entry point is context-first: cancelling the context stops the
// Monte Carlo loops within one in-flight trial per worker and the call
// returns ctx.Err(). Completed simulations are unaffected by the
// context, so the determinism contract is unchanged.
//
// The trial policy — the adaptive stop (Precision, MaxTrials,
// RelPrecision) and the estimator (Sampling) — is declared once, as
// Policy, which Config, eval.Config and scenario.TrialPolicy embed.
// Per-run changes from CLI flags, campaign overrides and the facade
// arrive as one PolicyOverride; its Apply owns the sentinels (0
// inherits, positive replaces, negative resets) and, with
// Policy.Validate, rejects non-finite numbers and unknown estimators.
package yield

import (
	"context"
	"fmt"
	"math"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/race"
	"chipletqc/internal/runner"
	"chipletqc/internal/sampling"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// Event is the progress observation type delivered to Config.Progress
// (an alias of runner.Event: label, trials done, trial budget).
type Event = runner.Event

// Config parameterises one yield simulation. It is a dumb engine
// config: callers compose it from a device scenario (see
// internal/scenario, whose Scenario.YieldConfig is the standard
// constructor) or field by field in tests.
type Config struct {
	Batch   int              // devices per batch (paper: 10^3 for Fig. 4, 10^4 for Fig. 8)
	Model   fab.Model        // fabrication process
	Params  collision.Params // Table I thresholds
	Seed    int64            // RNG seed
	Workers int              // parallel workers; <= 0 means GOMAXPROCS

	// Catalog is the chiplet family ChipletYields simulates; nil means
	// the paper's topo.Catalog.
	Catalog []topo.ChipletSize

	// Policy is the trial policy: the adaptive stop and the estimator.
	Policy
	// Progress, when non-nil, receives a per-device event at every
	// checkpoint trial count (and at completion), labelled with the
	// device name. It may be called concurrently from different
	// simulations of a sweep and must be safe for concurrent use.
	Progress func(Event)
}

// adaptiveMinTrials is the first early-stop checkpoint: small enough
// that near-certain yields (p ~ 0 or 1) stop almost immediately, large
// enough that the Wilson interval is meaningful before the first
// decision. Fixed-batch runs report progress on the same ladder.
const adaptiveMinTrials = 250

// Result is the outcome of a yield simulation for one device. Batch is
// the number of trials actually executed: the configured batch in fixed
// mode, possibly fewer in adaptive mode. CILo/CIHi bound the yield with
// the 95% Wilson score interval.
type Result struct {
	Device string
	Qubits int
	Batch  int
	Free   int // collision-free devices
	CILo   float64
	CIHi   float64

	// Estimator names the sampling estimator that produced the result;
	// empty for unlabelled plain counting (the zero spec). When set, Yield is
	// the estimator's (possibly weighted) point estimate — Free/Batch
	// counts raw proposal-level outcomes and is NOT the yield under
	// importance sampling — and ESS its effective sample size.
	Estimator string
	Yield     float64
	ESS       float64
}

// AuditError reports a simulation whose sampled audits caught Count
// trials that the estimator built as collision-free but the engine's
// checker rejected. It is an estimator construction bug, never an
// outcome of a healthy run, so Simulate fails rather than return a
// biased yield.
type AuditError struct {
	Device    string
	Estimator string
	Count     int
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("yield: %s: %d %s samples failed the collision audit (estimator bug)",
		e.Device, e.Count, e.Estimator)
}

// Fraction returns the collision-free yield in [0, 1]: the estimator's
// point estimate when one ran, otherwise the raw Free/Batch count.
func (r Result) Fraction() float64 {
	if r.Estimator != "" {
		return r.Yield
	}
	if r.Batch == 0 {
		return 0
	}
	return float64(r.Free) / float64(r.Batch)
}

// HalfWidth returns half the 95% confidence interval width.
func (r Result) HalfWidth() float64 { return (r.CIHi - r.CILo) / 2 }

// String renders "device: free/batch (yield [lo, hi])".
func (r Result) String() string {
	return fmt.Sprintf("%s: %d/%d (%.4f [%.4f, %.4f])",
		r.Device, r.Free, r.Batch, r.Fraction(), r.CILo, r.CIHi)
}

// Simulate estimates the collision-free yield of device d under cfg.
// With cfg.Precision > 0 it runs adaptively: trials stream in
// checkpointed blocks until the 95% CI half-width reaches the target or
// the MaxTrials/Batch budget is spent. Cancelling ctx aborts the
// campaign within one in-flight trial per worker and returns ctx.Err().
// A trial that fails the engine's collision audit makes the call return
// an *AuditError: the estimator is broken, and its yield is not to be
// trusted.
func Simulate(ctx context.Context, d *topo.Device, cfg Config) (Result, error) {
	if max, _ := cfg.budget(); max <= 0 {
		return Result{Device: d.Name, Qubits: d.N, CIHi: 1}, ctx.Err()
	}
	est, err := sampling.New(cfg.Sampling, d, cfg.Model, cfg.Params)
	if err != nil {
		return Result{}, err
	}
	res, err := simulateEstimated(ctx, d, cfg, est)
	if cfg.Sampling.IsZero() {
		// The zero spec counts with the plain estimator but stays
		// unlabelled, so its results render as they always have.
		res.Estimator, res.Yield, res.ESS = "", 0, 0
	}
	return res, err
}

// budget returns the trial cap and whether the run may stop early.
func (c Config) budget() (max int, adaptive bool) {
	adaptive = c.Precision > 0 || c.RelPrecision > 0
	if adaptive && c.MaxTrials > 0 {
		return c.MaxTrials, true
	}
	return c.Batch, adaptive
}

// auditEvery is the sampled-audit period: every auditEvery-th trial
// still runs the engine's independent collision check against the
// sampled frequencies, so an estimator bug is caught within one
// checkpoint block while the other trials skip the check, which would
// otherwise double the importance path's per-trial cost. It is a power
// of two, so picking the audited trials is a mask.
const auditEvery = 64

// auditPeriod returns auditEvery, or 1 (audit every trial) under
// `go test` or the race detector.
func auditPeriod() int {
	if testing.Testing() || race.Enabled {
		return 1
	}
	return auditEvery
}

// simulateEstimated is Simulate's Monte Carlo loop: trials carry a log
// likelihood-ratio weight from the estimator's proposal through the
// checkpointed stream, the estimator folds outcomes in index order, and
// adaptive stopping asks the estimator for its (possibly weighted,
// ESS-guarded) half-width. Worker-count invariance holds because block
// planning, observation and stop decisions all happen on the
// coordinating goroutine at the fixed checkpoint grid. A failed audit
// returns the finished result together with an *AuditError.
func simulateEstimated(ctx context.Context, d *topo.Device, cfg Config, est sampling.Estimator) (Result, error) {
	max, adaptive := cfg.budget()
	lastEmit := -1
	emit := func(done int) {
		if cfg.Progress != nil && done != lastEmit {
			lastEmit = done
			cfg.Progress(Event{Label: d.Name, Done: done, Total: max})
		}
	}
	checker, audit := est.Checker(), auditPeriod()
	type outcome struct {
		ok, auditFailed bool
		logw            float64
	}
	trial := func(l runner.Scratch, i int) outcome {
		logw := est.SampleInto(l.RNG.At(cfg.Seed, i), i, l.Buf)
		// A dead end (-Inf weight) is a failure regardless; any other
		// sample is collision-free by construction unless its audit says
		// no. The audit depends only on the trial index, preserving
		// worker-count invariance.
		o := outcome{ok: !math.IsInf(logw, -1), logw: logw}
		if o.ok && i&(audit-1) == 0 {
			o.ok = checker.Free(l.Buf)
			o.auditFailed = !o.ok
		}
		return o
	}
	auditFailures := 0
	stop := func(int) bool { return false }
	if adaptive {
		stop = func(int) bool {
			hw := est.HalfWidth(stats.Z95)
			if cfg.Precision > 0 && hw <= cfg.Precision {
				return true
			}
			if cfg.RelPrecision > 0 {
				y := est.Snapshot(stats.Z95).Yield
				return y > 0 && hw/y <= cfg.RelPrecision
			}
			return false
		}
	}
	trials, err := runner.StreamPlanned(ctx, max, cfg.Workers,
		runner.Checkpoints(adaptiveMinTrials, max), runner.NewScratch(d.N),
		est.PlanBlock, trial,
		func(i int, o outcome) {
			est.Observe(i, o.ok, o.logw)
			if o.auditFailed {
				auditFailures++
			}
		},
		func(done int) bool { emit(done); return stop(done) })
	if err != nil {
		return Result{}, err
	}
	emit(trials)
	e := est.Snapshot(stats.Z95)
	res := Result{
		Device: d.Name, Qubits: d.N,
		Batch: e.Trials, Free: e.Successes,
		CILo: e.CILo, CIHi: e.CIHi,
		Estimator: e.Estimator, Yield: e.Yield, ESS: e.ESS,
	}
	if auditFailures > 0 {
		return res, &AuditError{Device: d.Name, Estimator: est.Name(), Count: auditFailures}
	}
	return res, nil
}

// Point is one (qubits, yield) sample of a yield-vs-size curve, with
// the trials spent on it and its 95% Wilson confidence bounds.
type Point struct {
	Qubits int
	Yield  float64
	Trials int
	CILo   float64
	CIHi   float64
}

// MonolithicCurve simulates yield for a ladder of monolithic device sizes
// (paper Fig. 4: collision-free yield vs qubits). Sizes run concurrently;
// each size's simulation is independently seeded, so the curve is
// identical at any worker count. A failed simulation fails the curve
// with the error of the smallest failing size.
func MonolithicCurve(ctx context.Context, sizes []int, cfg Config) ([]Point, error) {
	outer, inner := runner.Split(cfg.Workers, len(sizes))
	icfg := cfg
	icfg.Workers = inner
	return runner.Map(ctx, len(sizes), outer, func(i int) (Point, error) {
		d := topo.MonolithicDevice(topo.MonolithicSpec(sizes[i]))
		res, err := Simulate(ctx, d, icfg)
		return Point{
			Qubits: d.N, Yield: res.Fraction(),
			Trials: res.Batch, CILo: res.CILo, CIHi: res.CIHi,
		}, err
	})
}

// SizeLadder returns a deterministic ladder of monolithic device sizes
// from 10 up to maxQubits, spaced roughly multiplicatively so the small
// sizes where yield transitions happen are well resolved.
func SizeLadder(maxQubits int) []int {
	var out []int
	seen := map[int]bool{}
	for n := 10; n <= maxQubits; {
		spec := topo.MonolithicSpec(n)
		q := spec.Qubits()
		if q <= maxQubits && !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
		switch {
		case n < 60:
			n += 10
		case n < 200:
			n += 20
		case n < 500:
			n += 50
		default:
			n += 100
		}
	}
	return out
}

// ChipletYields simulates collision-free yield for every chiplet of the
// configured catalog (paper Fig. 8(b)); cfg.Catalog nil falls back to
// the paper's topo.Catalog. The first failing chiplet's error fails the
// call.
func ChipletYields(ctx context.Context, cfg Config) ([]Result, error) {
	catalog := cfg.Catalog
	if catalog == nil {
		catalog = topo.Catalog
	}
	outer, inner := runner.Split(cfg.Workers, len(catalog))
	icfg := cfg
	icfg.Workers = inner
	return runner.Map(ctx, len(catalog), outer, func(i int) (Result, error) {
		cs := catalog[i]
		d := topo.MonolithicDevice(cs.Spec)
		d.Name = fmt.Sprintf("chiplet-%d", cs.Qubits)
		return Simulate(ctx, d, icfg)
	})
}

// DetuningSweep runs the Fig. 4 experiment: for each frequency step and
// each fabrication precision, the yield curve over the size ladder.
type SweepCell struct {
	Step   float64
	Sigma  float64
	Points []Point
}

// Sweep runs MonolithicCurve for the cross product of steps and sigmas.
// Cells run concurrently; each cell's curve is independently seeded. The
// worker budget is split between the cell fan-out and the nested curve
// so total concurrency stays near cfg.Workers. The first failing cell's
// error fails the sweep.
func Sweep(ctx context.Context, steps, sigmas []float64, sizes []int, cfg Config) ([]SweepCell, error) {
	outer, inner := runner.Split(cfg.Workers, len(steps)*len(sigmas))
	return runner.Map(ctx, len(steps)*len(sigmas), outer, func(i int) (SweepCell, error) {
		c := cfg
		c.Workers = inner
		c.Model.Plan.Step = steps[i/len(sigmas)]
		c.Model.Sigma = sigmas[i%len(sigmas)]
		points, err := MonolithicCurve(ctx, sizes, c)
		return SweepCell{
			Step:   c.Model.Plan.Step,
			Sigma:  c.Model.Sigma,
			Points: points,
		}, err
	})
}
