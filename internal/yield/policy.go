package yield

import (
	"fmt"
	"math"

	"chipletqc/internal/sampling"
)

// Policy is the trial policy of a yield simulation: when a run may stop
// early and which estimator counts its trials. The zero value is the
// fixed-batch mode with unlabelled plain counting, bit-identical to the
// releases that predate the policy. It is declared once, here: Config,
// eval.Config and scenario.TrialPolicy embed it, and PolicyOverride
// layers per-run changes over it.
type Policy struct {
	// Precision switches Simulate into adaptive mode: trials stream in
	// checkpointed blocks and stop once the 95% Wilson interval on the
	// yield has half-width <= Precision. 0 keeps the fixed-batch mode,
	// whose draws are bit-identical to earlier releases.
	Precision float64
	// MaxTrials caps the adaptive mode's budget; 0 falls back to the
	// batch size, so adaptive runs never exceed the fixed default's
	// cost.
	MaxTrials int
	// RelPrecision is the adaptive mode's relative target: stop once the
	// 95% CI half-width <= RelPrecision x the point estimate. It is the
	// right stopping rule for near-zero yields, where any absolute
	// target stops long before the event has even been observed; a run
	// with zero successes can never satisfy it. Either precision target
	// being met stops the run; 0 disables this one.
	RelPrecision float64
	// Sampling selects the yield estimator (see internal/sampling):
	// plain counting, or importance sampling with likelihood-ratio
	// reweighting for deep-low-yield scenarios. The zero spec counts
	// with the plain estimator but leaves results unlabelled, so they
	// render as in releases that predate the sampling subsystem.
	Sampling sampling.Spec
}

// Validate reports the first invalid policy value. Errors name the
// value as its command-line flag does (precision, maxtrials,
// relprecision, sampling).
func (p Policy) Validate() error {
	if err := finite("precision", p.Precision); err != nil {
		return err
	}
	if err := finite("relprecision", p.RelPrecision); err != nil {
		return err
	}
	switch {
	case p.Precision < 0:
		return fmt.Errorf("precision %g is negative", p.Precision)
	case p.MaxTrials < 0:
		return fmt.Errorf("maxtrials %d is negative", p.MaxTrials)
	case p.RelPrecision < 0:
		return fmt.Errorf("relprecision %g is negative", p.RelPrecision)
	}
	return p.Sampling.Validate()
}

// finite rejects NaN and ±Inf, which no comparison-based check catches.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s %g is not a finite number", name, v)
	}
	return nil
}

// PolicyOverride is a per-run change to a Policy in the sentinel form
// command-line flags and campaign plans carry. For each number, 0
// inherits the policy's value, a positive value replaces it and a
// negative value resets it to 0 (fixed-batch mode, whatever the
// scenario says). Sampling names an estimator method: "" inherits,
// "none" or "off" resets to unlabelled plain counting, and any other
// name selects that method at its default parameters. The zero value
// changes nothing.
type PolicyOverride struct {
	Precision    float64 `json:"precision,omitempty"`
	MaxTrials    int     `json:"max_trials,omitempty"`
	RelPrecision float64 `json:"rel_precision,omitempty"`
	Sampling     string  `json:"sampling,omitempty"`
}

// Apply layers o over p and validates the result. A non-finite number
// or an unknown method is an error, named as Policy.Validate names it.
func (o PolicyOverride) Apply(p Policy) (Policy, error) {
	if err := finite("precision", o.Precision); err != nil {
		return Policy{}, err
	}
	if err := finite("relprecision", o.RelPrecision); err != nil {
		return Policy{}, err
	}
	p.Precision = override(p.Precision, o.Precision)
	p.MaxTrials = override(p.MaxTrials, o.MaxTrials)
	p.RelPrecision = override(p.RelPrecision, o.RelPrecision)
	switch o.Sampling {
	case "":
	case "none", "off":
		p.Sampling = sampling.Spec{}
	default:
		p.Sampling = sampling.Spec{Method: o.Sampling}
	}
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// override applies one sentinel-form value to current.
func override[T float64 | int](current, v T) T {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	}
	return current
}
