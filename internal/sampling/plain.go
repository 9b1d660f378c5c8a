package sampling

import (
	"math"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// plain is the counting estimator: unweighted fabrication draws, Wilson
// score intervals. Each trial draws its device qubit by qubit and stops
// at the first collision (collision.Checker.SampleFree), so a colliding
// trial is a dead end and a completed one is collision-free by
// construction. The outcome is that of fab.Model.SampleInto followed by
// a full collision check on the same stream.
type plain struct {
	checker *collision.Checker
	mu      []float64
	sigma   float64
	p       stats.Proportion
}

func newPlain(d *topo.Device, m fab.Model, params collision.Params) *plain {
	return &plain{checker: collision.NewChecker(d, params), mu: m.Targets(d), sigma: m.Sigma}
}

func (e *plain) Name() string { return Plain }

func (e *plain) PlanBlock(lo, hi int) {}

// SampleInto returns -Inf on a collision, leaving buf only partly
// drawn, and 0 otherwise.
func (e *plain) SampleInto(r *runner.TrialRNG, i int, buf []float64) float64 {
	if !e.checker.SampleFree(r, e.mu, e.sigma, buf) {
		return math.Inf(-1)
	}
	return 0
}

// FreeByConstruction reports that every completed sample passed the
// Table I criteria, so the engine's own check is only a sampled audit.
func (e *plain) FreeByConstruction() bool { return true }

// Checker returns the checker the trials run, built for the thresholds
// New was given, so the engine can audit with it instead of building a
// second one per simulation. An audit still catches a bucketing bug:
// Checker.Free walks the criteria lists, not SampleFree's buckets.
func (e *plain) Checker() *collision.Checker { return e.checker }

func (e *plain) Observe(i int, ok bool, logw float64) { e.p.Add(ok) }

func (e *plain) HalfWidth(z float64) float64 { return e.p.HalfWidth(z) }

func (e *plain) Snapshot(z float64) Estimate {
	lo, hi := e.p.CI(z)
	return Estimate{
		Estimator: Plain,
		Trials:    e.p.Trials,
		Successes: e.p.Successes,
		Yield:     e.p.Estimate(),
		ESS:       float64(e.p.Trials),
		CILo:      lo,
		CIHi:      hi,
	}
}
