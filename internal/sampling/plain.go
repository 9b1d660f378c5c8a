package sampling

import (
	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// plain is the historical counting estimator behind the Estimator
// interface: unweighted fabrication draws, Wilson score intervals. Its
// draws are bit-identical to fab.Model.SampleInto on the same stream,
// so a plain-estimator run reproduces the inline path exactly.
type plain struct {
	d *topo.Device
	m fab.Model
	p stats.Proportion
}

func newPlain(d *topo.Device, m fab.Model) *plain {
	return &plain{d: d, m: m}
}

func (e *plain) Name() string { return Plain }

func (e *plain) PlanBlock(lo, hi int) {}

func (e *plain) SampleInto(r *runner.TrialRNG, i int, buf []float64) float64 {
	e.m.SampleInto(r, e.d, buf)
	return 0
}

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
