package scenario

import (
	"math"
	"strings"
	"testing"

	"chipletqc/internal/noise"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// Every registered preset must validate: the registry refuses invalid
// scenarios at Register time, so this doubles as a regression test that
// no preset drifts into an unphysical corner.
func TestEveryRegisteredPresetValidates(t *testing.T) {
	all := All()
	if len(all) < 4 {
		t.Fatalf("registry holds %d scenarios, want >= 4 presets", len(all))
	}
	for _, s := range all {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", s.Name, err)
		}
	}
}

func TestPresetOrderIsPaperFirst(t *testing.T) {
	names := Names()
	want := []string{PaperName, FutureFabName, ImprovedLinksName, RelaxedThresholdsName}
	for i, w := range want {
		if i >= len(names) || names[i] != w {
			t.Fatalf("registration order = %v, want prefix %v", names, want)
		}
	}
}

// Preset fingerprints are pairwise distinct (each preset really is a
// different device world) and pinned: a change to any determinism-
// relevant field of a preset must be deliberate and show up here.
func TestPresetFingerprintsDistinctAndPinned(t *testing.T) {
	pinned := map[string]string{
		PaperName:             "1fc8bd657301",
		FutureFabName:         "67491f1039b4",
		ImprovedLinksName:     "cd60c8093f19",
		RelaxedThresholdsName: "6849a02b76ea",
	}
	seen := map[string]string{}
	for _, s := range All() {
		fp := s.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("scenarios %q and %q share fingerprint %s", prev, s.Name, fp)
		}
		seen[fp] = s.Name
		if want, ok := pinned[s.Name]; ok && fp != want {
			t.Errorf("preset %q fingerprint = %s, want pinned %s (device world changed: "+
				"if intentional, update the pin and regenerate the goldens)", s.Name, fp, want)
		}
	}
	// Stability: fingerprinting is a pure function of the value.
	if Paper().Fingerprint() != Paper().Fingerprint() {
		t.Error("fingerprint is not stable across calls")
	}
}

// The fingerprint must ignore the name (renames don't change physics)
// and react to every physics field.
func TestFingerprintSensitivity(t *testing.T) {
	base := Paper()
	renamed := base
	renamed.Name, renamed.Description = "alias", "same world, different label"
	if renamed.Fingerprint() != base.Fingerprint() {
		t.Error("renaming a scenario changed its fingerprint")
	}
	muts := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"fab sigma", func(s *Scenario) { s.Fab.Sigma = 0.02 }},
		{"plan step", func(s *Scenario) { s.Fab.Plan.Step = 0.05 }},
		{"params T1", func(s *Scenario) { s.Params.T1 = 0.02 }},
		{"link mu", func(s *Scenario) { s.Link.Mu -= 0.5 }},
		{"detuning cycles", func(s *Scenario) { s.Detuning.Cycles = 7 }},
		{"reshuffles", func(s *Scenario) { s.Assembly.MaxReshuffles = 7 }},
		{"bond scale", func(s *Scenario) { s.Assembly.BondFailureScale = 100 }},
		{"mono batch", func(s *Scenario) { s.Trials.MonoBatch = 123 }},
		{"catalog", func(s *Scenario) { s.Catalog = s.Catalog[:3] }},
	}
	for _, m := range muts {
		s := Paper()
		m.mut(&s)
		if s.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutating %s did not change the fingerprint", m.name)
		}
	}
}

func TestLookupUnknownListsKnownScenarios(t *testing.T) {
	_, err := Lookup("warp-core")
	if err == nil {
		t.Fatal("Lookup of an unknown scenario succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"warp-core"`) {
		t.Errorf("error %q does not echo the requested name", msg)
	}
	for _, name := range []string{PaperName, FutureFabName, ImprovedLinksName, RelaxedThresholdsName} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list known scenario %q", msg, name)
		}
	}
}

func TestRegisterRejectsDuplicateAndInvalid(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register should panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate", func() { Register(newPaper()) })
	mustPanic("invalid", func() {
		s := newPaper()
		s.Name = "broken"
		s.Fab.Sigma = -1
		Register(s)
	})
	mustPanic("NaN precision", func() {
		s := newPaper()
		s.Name = "broken-precision"
		s.Trials.Precision = math.NaN()
		Register(s)
	})
}

func TestValidateCatchesBadFields(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }},
		{"empty description", func(s *Scenario) { s.Description = "" }},
		{"empty catalog", func(s *Scenario) { s.Catalog = nil }},
		{"mislabelled catalog", func(s *Scenario) {
			s.Catalog = []topo.ChipletSize{{Qubits: 11, Spec: topo.ChipSpec{DenseRows: 1, Width: 8}}}
		}},
		{"negative sigma", func(s *Scenario) { s.Fab.Sigma = -0.01 }},
		{"positive anharmonicity", func(s *Scenario) { s.Params.Anharmonicity = 0.3 }},
		{"negative half-width", func(s *Scenario) { s.Params.T5 = -0.001 }},
		{"zero detuning cycles", func(s *Scenario) { s.Detuning.Cycles = 0 }},
		{"negative reshuffles", func(s *Scenario) { s.Assembly.MaxReshuffles = -1 }},
		{"zero mono batch", func(s *Scenario) { s.Trials.MonoBatch = 0 }},
		{"negative precision", func(s *Scenario) { s.Trials.Precision = -0.1 }},
	}
	for _, c := range cases {
		s := newPaper()
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the scenario", c.name)
		}
	}
}

// TestValidateRejectsNonFinite: a NaN fails every sign check, and a NaN
// anharmonicity silently switches off Table I types 2, 3, 4, 6 and 7,
// so each of these must be refused rather than simulated.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"NaN anharmonicity", func(s *Scenario) { s.Params.Anharmonicity = nan }},
		{"-Inf anharmonicity", func(s *Scenario) { s.Params.Anharmonicity = -inf }},
		{"NaN T1", func(s *Scenario) { s.Params.T1 = nan }},
		{"+Inf T1", func(s *Scenario) { s.Params.T1 = inf }},
		{"NaN T7", func(s *Scenario) { s.Params.T7 = nan }},
		{"NaN fab sigma", func(s *Scenario) { s.Fab.Sigma = nan }},
		{"+Inf fab sigma", func(s *Scenario) { s.Fab.Sigma = inf }},
		{"NaN plan step", func(s *Scenario) { s.Fab.Plan.Step = nan }},
		{"NaN link sigma", func(s *Scenario) { s.Link.Sigma = nan }},
		{"+Inf link sigma", func(s *Scenario) { s.Link.Sigma = inf }},
		{"NaN precision", func(s *Scenario) { s.Trials.Precision = nan }},
		{"+Inf precision", func(s *Scenario) { s.Trials.Precision = inf }},
		{"NaN relative precision", func(s *Scenario) { s.Trials.RelPrecision = nan }},
	}
	for _, c := range cases {
		s := newPaper()
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the scenario", c.name)
		}
	}
}

// The paper scenario's detuning model must be the exact model the
// pre-scenario code built: the Washington-class calibration run at the
// deployed-device spread over 15 cycles, binned at the Fig. 7 width,
// hence identical samples.
func TestPaperDetuningModelMatchesLegacyDefault(t *testing.T) {
	const seed = 99
	got := Paper().DetuningModel(seed)
	want := noise.NewDetuningModel(noise.CalibrationRun(noise.WashingtonSpec(), noise.FreqSpreadFig7, 15, seed,
		noise.DefaultCalibConfig()), noise.BinWidthFig7)
	r1 := runner.NewTrialRNG().At(1, 0)
	r2 := runner.NewTrialRNG().At(1, 0)
	for _, det := range []float64{0, 0.05, 0.165, 0.33, 0.6} {
		for i := 0; i < 50; i++ {
			g, w := got.Sample(r1, det), want.Sample(r2, det)
			if g != w {
				t.Fatalf("sample at detuning %g differs: scenario %v, legacy %v", det, g, w)
			}
		}
	}
}

func TestSpecForQubits(t *testing.T) {
	s := Paper()
	spec, err := s.SpecForQubits(40)
	if err != nil || spec.Qubits() != 40 {
		t.Fatalf("SpecForQubits(40) = %v, %v", spec, err)
	}
	if _, err := s.SpecForQubits(41); err == nil || !strings.Contains(err.Error(), "10") {
		t.Errorf("SpecForQubits(41) error %v should list the catalog sizes", err)
	}
}

func TestAdapterConfigsCarryTheScenario(t *testing.T) {
	s := MustLookup(ImprovedLinksName)
	y := s.YieldConfig(500, 7)
	if y.Batch != 500 || y.Seed != 7 || y.Model != s.Fab || y.Params != s.Params {
		t.Errorf("YieldConfig dropped scenario fields: %+v", y)
	}
	a := s.AssembleConfig(7)
	if a.Link != s.Link || a.MaxReshuffles != s.Assembly.MaxReshuffles || a.Params != s.Params {
		t.Errorf("AssembleConfig dropped scenario fields: %+v", a)
	}
	b := s.BatchConfig(7, nil, 3)
	if b.Fab != s.Fab || b.Det == nil || b.Workers != 3 || b.Seed != 7 {
		t.Errorf("BatchConfig dropped scenario fields: %+v", b)
	}
}
