package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"chipletqc/internal/eval"
	"chipletqc/internal/report"
	"chipletqc/internal/scenario"
)

func ptr[T any](v T) *T { return &v }

// The paper catalog in registration (paper) order.
var wantCatalog = []string{
	"fig1", "fig2", "fig3b", "fig4", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig10corr", "table2", "eq1",
}

func TestCatalogRegistersEveryPaperExperiment(t *testing.T) {
	names := Names()
	if len(names) < len(wantCatalog) {
		t.Fatalf("registry holds %d experiments, want >= %d: %v", len(names), len(wantCatalog), names)
	}
	for i, want := range wantCatalog {
		if names[i] != want {
			t.Errorf("registry[%d] = %q, want %q (paper order)", i, names[i], want)
		}
	}
	for _, e := range All() {
		if e.Name() == "" || e.Describe() == "" {
			t.Errorf("experiment %q lacks a name or description", e.Name())
		}
	}
}

func TestLookup(t *testing.T) {
	e, ok := Lookup("fig8")
	if !ok || e.Name() != "fig8" {
		t.Fatalf("Lookup(fig8) = %v, %v", e, ok)
	}
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Error("Lookup of an unknown name succeeded")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	Register(New("fig8", "dup", nil))
}

func TestRunProducesSelfDescribingArtifact(t *testing.T) {
	e, _ := Lookup("fig2") // pure arithmetic: instant and deterministic
	cfg := eval.QuickConfig(7)
	a, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "fig2" || a.Seed != 7 || a.Fingerprint == "" || a.Payload == nil {
		t.Fatalf("artifact incomplete: %+v", a)
	}
	if a.Fingerprint != Fingerprint(cfg) {
		t.Error("artifact fingerprint does not match config")
	}
	text := a.String()
	for _, want := range []string{"# experiment: fig2", "# seed: 7", "Fig. 2"} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
}

func TestArtifactJSONRoundTrip(t *testing.T) {
	e, _ := Lookup("eq1")
	cfg := eval.QuickConfig(3)
	a, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trials == 0 {
		t.Error("eq1 should report scheduled trials")
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("artifact JSON does not round-trip: %v", err)
	}
	if back.Name != a.Name || back.Seed != a.Seed || back.Fingerprint != a.Fingerprint ||
		back.Trials != a.Trials || back.Payload == nil ||
		len(back.Payload.Rows) != len(a.Payload.Rows) {
		t.Errorf("round-trip lost fields:\nsent %+v\ngot  %+v", a, back)
	}
}

func TestRunHonoursPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"fig2", "fig8"} {
		e, _ := Lookup(name)
		if _, err := e.Run(ctx, eval.QuickConfig(1)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestRunRejectsInvalidPolicy: a directly built config with a
// non-finite precision is refused before anything runs, rather than
// running the fixed batch under a fingerprint of its own.
func TestRunRejectsInvalidPolicy(t *testing.T) {
	cfg := eval.QuickConfig(1)
	cfg.Precision = math.NaN()
	e, _ := Lookup("fig4")
	_, err := e.Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "experiment fig4") {
		t.Errorf("fig4 with Precision NaN: err = %v, want an error naming the experiment", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := eval.DefaultConfig(1)
	same := eval.DefaultConfig(1)
	same.Workers = 16 // workers never affect results
	same.Progress = func(eval.Event) {}
	if Fingerprint(base) != Fingerprint(same) {
		t.Error("workers/progress changed the fingerprint")
	}
	diffs := []func(*eval.Config){
		func(c *eval.Config) { c.Seed = 2 },
		func(c *eval.Config) { c.MonoBatch = 999 },
		func(c *eval.Config) { c.Scenario.Fab.Sigma = 0.02 },
		func(c *eval.Config) { s := scenario.MustLookup(scenario.FutureFabName); c.Scenario = &s },
		func(c *eval.Config) { c.LinkMean = ptr(0.0) },
		func(c *eval.Config) { c.Precision = 0.01 },
		func(c *eval.Config) { c.Fig10Samples = 9 },
	}
	for i, mut := range diffs {
		c := eval.DefaultConfig(1)
		mut(&c)
		if Fingerprint(c) == Fingerprint(base) {
			t.Errorf("mutation %d did not change the fingerprint", i)
		}
	}
}

// TestStableTextRendering: the text artifact for a fixed config is
// byte-stable across runs (wall time is JSON-only by design).
func TestStableTextRendering(t *testing.T) {
	e, _ := Lookup("table2")
	cfg := eval.QuickConfig(5)
	a1, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a1.String() != a2.String() {
		t.Error("text rendering differs across identical runs")
	}
}

func TestNewPanicsOnEmptyName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with empty name should panic")
		}
	}()
	New("", "x", func(context.Context, eval.Config) (*report.Table, int, error) { return nil, 0, nil })
}
