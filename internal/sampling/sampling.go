// Package sampling provides pluggable Monte Carlo yield estimators for
// the collision-free yield simulation: the plain counting estimator
// (every trial draws its device and stops at the first collision) and
// an importance-sampling estimator (qubit frequencies are placed
// sequentially, each drawn from the fabrication Gaussian conditioned on
// the values that keep the partial assignment collision-free, and every
// trial is reweighted by the exact Gaussian likelihood ratio — the
// product of the per-qubit allowed masses).
//
// The importance estimator exists for deep-low-yield scenarios: once
// the collision-free probability p falls toward 10^-3 and below, the
// plain estimator needs ~z²/(rel²·p) trials for a tight *relative*
// confidence interval — ~10^5 trials at p = 10^-3 for ±20%, ~10^7 at
// p = 10^-5 — and adaptive stopping cannot help because every trial is
// an almost-certain failure. The sequential conditioned estimator never
// wastes a trial: its proposal's support is exactly the collision-free
// set, every sample carries a weight in (0, 1], and the trial count at
// equal CI width drops by orders of magnitude (see the tight-thresholds
// acceptance test in internal/scenario).
//
// Every estimator honours the engine's determinism contract: trial i
// draws only from its private (seed, i)-derived RNG stream and
// observations fold in index order — so estimates, trial counts, and
// effective sample sizes are bit-identical at any worker count.
// Estimators are single-use and bind one (device, fabrication model)
// pair; SampleInto is safe for concurrent workers because it never
// mutates estimator state.
package sampling

import (
	"fmt"
	"math"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// Method names. The empty method is "no spec": the yield engine counts
// with the plain estimator but leaves its results unlabelled.
const (
	Plain      = "plain"
	Importance = "importance"
)

// DefaultMinESS is the effective sample size the importance estimator
// requires before it lets adaptive stopping trigger: the Kish size
// (Σw)²/Σw². An estimate resting on a handful of dominant weights must
// keep sampling no matter how small its nominal variance looks.
// Spec.Canonical resolves it.
const DefaultMinESS = 50

// Spec selects and parameterises a yield estimator. It is plain,
// comparable data so it can live in a scenario's trial policy and fold
// into fingerprints. The zero value means "unset": the yield engine
// counts with the plain estimator and leaves results unlabelled,
// byte-identical to releases that predate this package.
type Spec struct {
	// Method is "plain" or "importance" ("" = unset).
	Method string `json:"method,omitempty"`
	// MinESS is the effective sample size a weighted estimator must
	// reach before adaptive stopping may trigger (0 = DefaultMinESS).
	// Ignored by plain.
	MinESS float64 `json:"min_ess,omitempty"`
}

// IsZero reports whether the spec is unset.
func (s Spec) IsZero() bool { return s == Spec{} }

// Canonical resolves defaults and zeroes every field the method does
// not read, so two specs that configure the same estimator compare and
// fingerprint equal (a leftover MinESS on a plain spec must not split
// the artifact-store key space).
func (s Spec) Canonical() Spec {
	switch s.Method {
	case "":
		return Spec{}
	case Plain:
		return Spec{Method: Plain}
	case Importance:
		c := Spec{Method: Importance, MinESS: s.MinESS}
		if c.MinESS == 0 {
			c.MinESS = DefaultMinESS
		}
		return c
	}
	return s
}

// Validate reports the first invalid spec field.
func (s Spec) Validate() error {
	switch s.Method {
	case "", Plain:
	case Importance:
		if !(s.MinESS >= 0) || math.IsInf(s.MinESS, 1) {
			return fmt.Errorf("sampling: MinESS %g is not a finite non-negative number", s.MinESS)
		}
	default:
		return fmt.Errorf("sampling: unknown method %q (want %q or %q)",
			s.Method, Plain, Importance)
	}
	return nil
}

// String renders the canonical spec as a short stable token, the form
// scenario and experiment fingerprints embed. The zero spec renders "".
func (s Spec) String() string {
	c := s.Canonical()
	if c.Method == Importance {
		return fmt.Sprintf("importance(miness=%g)", c.MinESS)
	}
	return c.Method
}

// Estimate is one estimator's current view of the yield.
type Estimate struct {
	// Estimator is the producing method's name.
	Estimator string
	// Trials and Successes count raw executed trials and raw
	// collision-free outcomes (under the *proposal* for importance
	// sampling, so Successes/Trials is not the estimate there).
	Trials    int
	Successes int
	// Yield is the point estimate of the collision-free probability.
	Yield float64
	// ESS is the effective sample size: Trials for unweighted
	// estimators; for importance sampling it is the effective success
	// count (Σw·y)²/Σ(w·y)², the number of equally weighted successes
	// carrying the same estimator mass.
	ESS float64
	// CILo and CIHi bound the yield with a 95%-style interval at the
	// quantile the snapshot was taken with.
	CILo, CIHi float64
}

// HalfWidth returns half the interval width.
func (e Estimate) HalfWidth() float64 { return (e.CIHi - e.CILo) / 2 }

// Estimator is one pluggable yield-estimation strategy, driven by the
// checkpointed streaming loop in internal/yield:
//
//	PlanBlock(lo, hi)            before each block of trials [lo, hi)
//	w := SampleInto(r, i, buf)   concurrently, one call per trial
//	Observe(i, ok, w)            in trial-index order after the block
//	HalfWidth / Snapshot         at checkpoints, for stopping and results
//
// PlanBlock and Observe run on the coordinating goroutine only;
// SampleInto runs concurrently from workers and must not mutate state.
// The float64 threaded from SampleInto to Observe is the trial's LOG
// likelihood ratio (0 for unweighted estimators), kept in log domain so
// extreme draws cannot overflow a linear weight.
type Estimator interface {
	// Name returns the method name recorded on results.
	Name() string
	// PlanBlock prepares trial assignment for indices [lo, hi). It is
	// never called concurrently with SampleInto.
	PlanBlock(lo, hi int)
	// SampleInto fills buf (device-qubit length) with trial i's realised
	// frequencies from r, which is positioned on trial i's private
	// stream, and returns the trial's log likelihood ratio.
	SampleInto(r *runner.TrialRNG, i int, buf []float64) float64
	// Observe folds trial i's outcome; called in index order.
	Observe(i int, ok bool, logw float64)
	// HalfWidth returns the current CI half-width at quantile z, or +Inf
	// while the estimate is not yet stoppable (ESS below the guard), so
	// adaptive stopping composes with the guards for free.
	HalfWidth(z float64) float64
	// Snapshot reports the current estimate with its CI at quantile z.
	Snapshot(z float64) Estimate
	// Checker returns the collision checker the estimator was built
	// from, for the thresholds New was given. Every estimator is free by
	// construction: a finite-weight sample satisfies Table I. The engine
	// audits that claim with Checker.Free, which evaluates the
	// predicates, not the buckets or intervals the samples came from.
	Checker() *collision.Checker
}

// New constructs the estimator a spec selects, bound to one device,
// fabrication model, and set of collision thresholds. The zero spec
// yields the plain estimator. Both estimators build one
// collision.Checker for the thresholds: plain's trials run its
// SampleFree, importance's proposal comes from its Intervals, and the
// engine audits either with its Free.
func New(spec Spec, d *topo.Device, m fab.Model, p collision.Params) (Estimator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := spec.Canonical()
	switch c.Method {
	case "", Plain:
		return newPlain(d, m, p), nil
	case Importance:
		if !(m.Sigma > 0) || math.IsInf(m.Sigma, 1) {
			return nil, fmt.Errorf("sampling: importance sampling needs a finite positive fabrication sigma (got %g)", m.Sigma)
		}
		// newImportance validates the per-qubit band counts against the
		// sequential proposal's scratch capacity and returns a typed
		// *BandLimitError for over-dense devices.
		return newImportance(c, d, m, p)
	}
	return nil, fmt.Errorf("sampling: unknown method %q", c.Method)
}
