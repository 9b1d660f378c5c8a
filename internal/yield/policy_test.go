package yield

import (
	"math"
	"strings"
	"testing"

	"chipletqc/internal/sampling"
)

// applyCase is one row of the PolicyOverride.Apply tables below.
type applyCase struct {
	name    string
	o       PolicyOverride
	want    Policy
	wantErr string
}

// adaptiveBase is a policy as seeded by an adaptive rare-event scenario.
var adaptiveBase = Policy{
	Precision: 0.05, MaxTrials: 4000, RelPrecision: 0.3,
	Sampling: sampling.Spec{Method: sampling.Importance, MinESS: 80},
}

// withBase returns adaptiveBase with one edit applied.
func withBase(edit func(*Policy)) Policy {
	p := adaptiveBase
	edit(&p)
	return p
}

// checkApply runs each case's override over adaptiveBase.
func checkApply(t *testing.T, cases []applyCase) {
	t.Helper()
	for _, tc := range cases {
		got, err := tc.o.Apply(adaptiveBase)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Errorf("%s: Apply error %v, want one starting %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: Apply: %v", tc.name, err)
		case got != tc.want:
			t.Errorf("%s: Apply = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestApplyTrialPolicyOverrides pins the numeric sentinels for each
// knob: 0 inherits, a positive value replaces, a negative value resets
// (forcing fixed-batch mode when precision and max trials both reset).
func TestApplyTrialPolicyOverrides(t *testing.T) {
	checkApply(t, []applyCase{
		{name: "zero inherits", o: PolicyOverride{}, want: adaptiveBase},
		{name: "precision 0", o: PolicyOverride{Precision: 0}, want: adaptiveBase},
		{name: "precision positive", o: PolicyOverride{Precision: 0.01}, want: withBase(func(p *Policy) { p.Precision = 0.01 })},
		{name: "precision negative", o: PolicyOverride{Precision: -1}, want: withBase(func(p *Policy) { p.Precision = 0 })},
		{name: "maxtrials 0", o: PolicyOverride{MaxTrials: 0}, want: adaptiveBase},
		{name: "maxtrials positive", o: PolicyOverride{MaxTrials: 99}, want: withBase(func(p *Policy) { p.MaxTrials = 99 })},
		{name: "maxtrials negative", o: PolicyOverride{MaxTrials: -1}, want: withBase(func(p *Policy) { p.MaxTrials = 0 })},
		{name: "relprecision 0", o: PolicyOverride{RelPrecision: 0}, want: adaptiveBase},
		{name: "relprecision positive", o: PolicyOverride{RelPrecision: 0.2}, want: withBase(func(p *Policy) { p.RelPrecision = 0.2 })},
		{name: "relprecision negative", o: PolicyOverride{RelPrecision: -1}, want: withBase(func(p *Policy) { p.RelPrecision = 0 })},
	})
	// Through a Config, whose embedded Policy is what an override edits.
	cfg := Config{Policy: Policy{Precision: 0.05, MaxTrials: 500}}
	for _, step := range []struct {
		o         PolicyOverride
		precision float64
		maxTrials int
	}{
		{PolicyOverride{}, 0.05, 500},
		{PolicyOverride{Precision: 0.01, MaxTrials: 99}, 0.01, 99},
		{PolicyOverride{Precision: -1, MaxTrials: -1}, 0, 0},
	} {
		p, err := step.o.Apply(cfg.Policy)
		if err != nil {
			t.Fatalf("Apply(%+v): %v", step.o, err)
		}
		cfg.Policy = p
		if cfg.Precision != step.precision || cfg.MaxTrials != step.maxTrials {
			t.Errorf("after %+v: (%g, %d), want (%g, %d)",
				step.o, cfg.Precision, cfg.MaxTrials, step.precision, step.maxTrials)
		}
	}
}

// TestResolveSamplingMethod pins the sampling sentinels: "" inherits,
// "none"/"off" force unlabelled plain counting, a method name selects
// that method at its defaults, and an unknown name is an error.
func TestResolveSamplingMethod(t *testing.T) {
	checkApply(t, []applyCase{
		{name: "sampling empty", o: PolicyOverride{Sampling: ""}, want: adaptiveBase},
		{name: "sampling none", o: PolicyOverride{Sampling: "none"}, want: withBase(func(p *Policy) { p.Sampling = sampling.Spec{} })},
		{name: "sampling off", o: PolicyOverride{Sampling: "off"}, want: withBase(func(p *Policy) { p.Sampling = sampling.Spec{} })},
		{name: "sampling plain", o: PolicyOverride{Sampling: sampling.Plain}, want: withBase(func(p *Policy) { p.Sampling = sampling.Spec{Method: sampling.Plain} })},
		{name: "sampling importance", o: PolicyOverride{Sampling: sampling.Importance}, want: withBase(func(p *Policy) { p.Sampling = sampling.Spec{Method: sampling.Importance} })},
		{name: "sampling bogus", o: PolicyOverride{Sampling: "bogus"}, wantErr: "sampling"},
	})
}

// TestPolicyOverrideApply: the knobs combine, and a non-finite number
// is an error naming the knob.
func TestPolicyOverrideApply(t *testing.T) {
	checkApply(t, []applyCase{
		{name: "all reset", o: PolicyOverride{Precision: -1, MaxTrials: -1, RelPrecision: -1, Sampling: "none"}, want: Policy{}},
		{name: "mix", o: PolicyOverride{Precision: 0.02, Sampling: sampling.Plain}, want: withBase(func(p *Policy) {
			p.Precision = 0.02
			p.Sampling = sampling.Spec{Method: sampling.Plain}
		})},
		{name: "precision NaN", o: PolicyOverride{Precision: math.NaN()}, wantErr: "precision NaN"},
		{name: "precision +Inf", o: PolicyOverride{Precision: math.Inf(1)}, wantErr: "precision +Inf"},
		{name: "precision -Inf", o: PolicyOverride{Precision: math.Inf(-1)}, wantErr: "precision -Inf"},
		{name: "relprecision NaN", o: PolicyOverride{RelPrecision: math.NaN()}, wantErr: "relprecision NaN"},
		{name: "relprecision +Inf", o: PolicyOverride{RelPrecision: math.Inf(1)}, wantErr: "relprecision +Inf"},
	})
}

// TestPolicyValidate: a stored policy takes only finite, non-negative
// numbers and a known estimator.
func TestPolicyValidate(t *testing.T) {
	if err := (Policy{}).Validate(); err != nil {
		t.Errorf("zero policy: %v", err)
	}
	for _, bad := range []Policy{
		{Precision: math.NaN()},
		{Precision: math.Inf(1)},
		{Precision: -0.01},
		{MaxTrials: -1},
		{RelPrecision: math.NaN()},
		{RelPrecision: -0.2},
		{Sampling: sampling.Spec{Method: "bogus"}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want an error", bad)
		}
	}
}
