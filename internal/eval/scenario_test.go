package eval

import (
	"math/rand"
	"testing"

	"chipletqc/internal/scenario"
	"chipletqc/internal/yield"
)

func ptr[T any](v T) *T { return &v }

// Regression for the PR 3 leftover: eval.Config.LinkMean was a plain
// float64 whose zero value meant "keep the default", so a literal 0.0
// link infidelity (perfect links) was unrequestable. It is now a
// pointer resolved through the scenario: nil keeps the scenario link
// model, Ptr(0.0) yields the degenerate perfect-link model, and any
// other explicit value rescales the mean.
func TestLinkMeanPointerResolvesExplicitZero(t *testing.T) {
	r := rand.New(rand.NewSource(1))

	var def Config
	if got, want := def.linkModel(), scenario.Paper().Link; got != want {
		t.Errorf("nil LinkMean: link model = %+v, want the scenario's %+v", got, want)
	}

	perfect := Config{LinkMean: ptr(0.0)}
	for i := 0; i < 10; i++ {
		if v := perfect.linkModel().Sample(r); v != 0 {
			t.Fatalf("LinkMean Ptr(0.0): sample %d = %v, want 0 (perfect links)", i, v)
		}
	}

	rescaled := Config{LinkMean: ptr(0.036)}
	if m := rescaled.linkModel().Mean(); m < 0.0359 || m > 0.0361 {
		t.Errorf("LinkMean Ptr(0.036): model mean = %v, want ~0.036", m)
	}
}

// The LinkMean override applies on top of whatever scenario is
// configured, so improved-links + Ptr(0.0) still resolves to perfect
// links while nil keeps the scenario's own (non-paper) model.
func TestLinkMeanComposesWithScenario(t *testing.T) {
	s := scenario.MustLookup(scenario.ImprovedLinksName)
	cfg := Config{Scenario: &s}
	if got := cfg.linkModel(); got != s.Link {
		t.Errorf("nil LinkMean under improved-links: got %+v, want the scenario link model", got)
	}
	cfg.LinkMean = ptr(0.0)
	r := rand.New(rand.NewSource(2))
	if v := cfg.linkModel().Sample(r); v != 0 {
		t.Errorf("Ptr(0.0) under improved-links: sample = %v, want 0", v)
	}
}

// Zero-valued configs resolve to the paper scenario, preserving the
// historical "zero config still works" contract.
func TestZeroConfigResolvesToPaperScenario(t *testing.T) {
	var cfg Config
	if got := cfg.scn(); got.Name != scenario.PaperName {
		t.Fatalf("zero config resolves to scenario %q, want %q", got.Name, scenario.PaperName)
	}
	if cfg.det() == nil {
		t.Fatal("zero config det() returned nil")
	}
}

// A per-run override edits the yield.Policy embedded in Config: 0
// inherits the scenario policy, positive overrides, negative forces
// fixed-batch mode.
func TestApplyTrialPolicyOverrides(t *testing.T) {
	base := Config{Policy: yield.Policy{Precision: 0.05, MaxTrials: 4000}} // as seeded by an adaptive scenario
	cases := []struct {
		precision     float64
		maxTrials     int
		wantPrecision float64
		wantMax       int
	}{
		{0, 0, 0.05, 4000},     // inherit
		{0.01, 100, 0.01, 100}, // override
		{-1, -1, 0, 0},         // force fixed / reset
		{0.02, 0, 0.02, 4000},  // mix
	}
	for _, c := range cases {
		cfg := base
		p, err := yield.PolicyOverride{Precision: c.precision, MaxTrials: c.maxTrials}.Apply(cfg.Policy)
		if err != nil {
			t.Fatalf("Apply(%g, %d): %v", c.precision, c.maxTrials, err)
		}
		cfg.Policy = p
		if cfg.Precision != c.wantPrecision || cfg.MaxTrials != c.wantMax {
			t.Errorf("Apply(%g, %d) = (%g, %d), want (%g, %d)",
				c.precision, c.maxTrials, cfg.Precision, cfg.MaxTrials, c.wantPrecision, c.wantMax)
		}
	}
}

// ConfigFor seeds the trial policy from the scenario and pins the
// scenario on the config.
func TestConfigForCarriesScenarioPolicy(t *testing.T) {
	s := scenario.Paper()
	s.Trials = scenario.TrialPolicy{MonoBatch: 123, ChipletBatch: 456, Policy: yield.Policy{Precision: 0.02, MaxTrials: 789}}
	cfg := ConfigFor(s, 5)
	if cfg.MonoBatch != 123 || cfg.ChipletBatch != 456 || cfg.Precision != 0.02 || cfg.MaxTrials != 789 {
		t.Errorf("ConfigFor dropped the trial policy: %+v", cfg)
	}
	if cfg.Scenario == nil || cfg.Scenario.Trials.MonoBatch != 123 {
		t.Error("ConfigFor did not pin the scenario")
	}
}
