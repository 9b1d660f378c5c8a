package sampling

import (
	"math"
	"strings"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/topo"
)

// scaledThresholds widens (scale > 1) or narrows every Table I
// half-width, the knob the rare-event tests use to dial the yield.
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

func TestSpecCanonicalResolvesDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Spec
		want Spec
	}{
		{"zero stays zero", Spec{}, Spec{}},
		{"plain drops MinESS", Spec{Method: Plain, MinESS: 9}, Spec{Method: Plain}},
		{"importance fills defaults", Spec{Method: Importance},
			Spec{Method: Importance, MinESS: DefaultMinESS}},
		{"importance keeps explicit MinESS", Spec{Method: Importance, MinESS: 10},
			Spec{Method: Importance, MinESS: 10}},
	}
	for _, tc := range cases {
		if got := tc.in.Canonical(); got != tc.want {
			t.Errorf("%s: Canonical() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestSpecStringFingerprintStable pins the token fingerprints embed: an
// explicitly-defaulted spec and a bare method spec must render (and so
// cache) identically, and the zero spec must render empty so pinned
// pre-sampling fingerprints stay byte-identical.
func TestSpecStringFingerprintStable(t *testing.T) {
	if got := (Spec{}).String(); got != "" {
		t.Errorf("zero spec renders %q, want empty", got)
	}
	if got := (Spec{Method: Plain}).String(); got != "plain" {
		t.Errorf("plain renders %q", got)
	}
	if got := (Spec{Method: Importance}).String(); got != "importance(miness=50)" {
		t.Errorf("importance default renders %q", got)
	}
	bare := Spec{Method: Importance}
	explicit := Spec{Method: Importance, MinESS: DefaultMinESS}
	if bare.String() != explicit.String() {
		t.Errorf("default-resolved specs split the fingerprint space: %q vs %q",
			bare.String(), explicit.String())
	}
}

func TestSpecValidate(t *testing.T) {
	valid := []Spec{
		{},
		{Method: Plain},
		{Method: Importance},
		{Method: Importance, MinESS: 100},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	invalid := []Spec{
		{Method: "bogus"},
		{Method: "stratified"},
		{Method: Importance, MinESS: -1},
		{Method: Importance, MinESS: math.NaN()},
		{Method: Importance, MinESS: math.Inf(1)},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
	if err := (Spec{Method: "stratified"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "unknown method") {
		t.Errorf("stratified: Validate() = %v, want an unknown method error", err)
	}
}

// FuzzSpec checks the properties fingerprints rely on: Canonical is
// idempotent, the canonical form of a valid spec still validates, and
// String is injective over valid canonical specs, so two distinct
// estimator configurations can never share a cache key.
func FuzzSpec(f *testing.F) {
	f.Add("", 0.0, Plain, 0.0)
	f.Add(Importance, 0.0, Importance, float64(DefaultMinESS))
	f.Add(Importance, 10.0, Plain, 10.0)
	f.Add("stratified", 50.0, Importance, -0.0)
	f.Fuzz(func(t *testing.T, m1 string, e1 float64, m2 string, e2 float64) {
		a, b := Spec{Method: m1, MinESS: e1}, Spec{Method: m2, MinESS: e2}
		for _, s := range []Spec{a, b} {
			if s.Validate() != nil {
				return
			}
			c := s.Canonical()
			if c.Canonical() != c {
				t.Fatalf("Canonical not idempotent: %+v -> %+v -> %+v", s, c, c.Canonical())
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("canonical %+v of valid %+v fails Validate: %v", c, s, err)
			}
		}
		ca, cb := a.Canonical(), b.Canonical()
		if ca != cb && ca.String() == cb.String() {
			t.Fatalf("distinct canonical specs %+v and %+v both render %q", ca, cb, ca.String())
		}
	})
}

func TestNewSelectsEstimator(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(16))
	m := fab.DefaultModel()
	p := collision.DefaultParams()
	for spec, want := range map[Spec]string{
		{}:                   Plain,
		{Method: Plain}:      Plain,
		{Method: Importance}: Importance,
	} {
		est, err := New(spec, d, m, p)
		if err != nil {
			t.Fatalf("New(%+v): %v", spec, err)
		}
		if est.Name() != want {
			t.Errorf("New(%+v).Name() = %q, want %q", spec, est.Name(), want)
		}
	}
}

func TestNewRejectsUnusableConfigs(t *testing.T) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(16))
	deterministic := fab.DefaultModel()
	deterministic.Sigma = 0
	nan, inf := fab.DefaultModel(), fab.DefaultModel()
	nan.Sigma, inf.Sigma = math.NaN(), math.Inf(1)
	p := collision.DefaultParams()
	cases := []struct {
		name string
		spec Spec
		m    fab.Model
	}{
		{"unknown method", Spec{Method: "bogus"}, fab.DefaultModel()},
		{"importance without noise", Spec{Method: Importance}, deterministic},
		{"importance with NaN sigma", Spec{Method: Importance}, nan},
		{"importance with infinite sigma", Spec{Method: Importance}, inf},
	}
	for _, tc := range cases {
		if _, err := New(tc.spec, d, tc.m, p); err == nil {
			t.Errorf("%s: New succeeded, want error", tc.name)
		}
	}
}
