package cli

import (
	"errors"
	"io"
	"strings"
	"testing"

	"chipletqc/internal/scenario"
	"chipletqc/internal/yield"
)

// TestBindDeclaresOnlyTheSelectedFlags: -seed and -workers are always
// bound; the optional groups appear only when selected, and unbound
// flags read as their defaults.
func TestBindDeclaresOnlyTheSelectedFlags(t *testing.T) {
	fs := NewFlagSet("t", io.Discard)
	r := Bind(fs, Quick)
	for _, name := range []string{"seed", "workers", "quick"} {
		if fs.Lookup(name) == nil {
			t.Errorf("-%s not bound", name)
		}
	}
	for _, name := range []string{"scenario", "precision", "maxtrials", "relprecision", "sampling"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s bound without being selected", name)
		}
	}
	if err := fs.Parse([]string{"-seed", "7", "-quick"}); err != nil {
		t.Fatal(err)
	}
	if p, err := r.Policy(); r.Seed() != 7 || !r.Quick() || r.Workers() != 0 || p != (yield.PolicyOverride{}) || err != nil {
		t.Errorf("parsed run flags wrong: seed %d quick %v workers %d policy %+v (err %v)", r.Seed(), r.Quick(), r.Workers(), p, err)
	}
	if s, err := r.Scenario(); err != nil || s.Name != scenario.PaperName {
		t.Errorf("unbound -scenario = %q (err %v), want the paper default", s.Name, err)
	}
}

// TestEvalLayersTheTrialPolicy: the flags reach the experiment config
// as an override of the scenario's policy (yield's tests pin the
// sentinels), and a value no policy can take is a usage error naming
// its flag.
func TestEvalLayersTheTrialPolicy(t *testing.T) {
	fs := NewFlagSet("t", io.Discard)
	r := Bind(fs, Scenario|TrialPolicy)
	if err := fs.Parse([]string{"-scenario", "tight-thresholds", "-workers", "3",
		"-precision", "0.02", "-maxtrials", "-1", "-sampling", "none"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := r.Eval()
	if err != nil {
		t.Fatal(err)
	}
	scn := cfg.ResolvedScenario()
	want := yield.Policy{Precision: 0.02, RelPrecision: scn.Trials.RelPrecision}
	if scn.Name != "tight-thresholds" || cfg.Workers != 3 || cfg.Policy != want {
		t.Errorf("Eval config wrong: scenario %s workers %d policy %+v, want policy %+v",
			scn.Name, cfg.Workers, cfg.Policy, want)
	}

	for _, args := range [][]string{
		{"-precision", "NaN"},
		{"-precision", "+Inf"},
		{"-relprecision", "NaN"},
		{"-relprecision", "-Inf"},
		{"-sampling", "bogus"},
	} {
		var errw strings.Builder
		fs := NewFlagSet("t", &errw)
		r := Bind(fs, Scenario|TrialPolicy)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Eval(); !errors.Is(err, ErrUsage) || !strings.HasPrefix(errw.String(), "t: "+args[0]) {
			t.Errorf("%v: Eval error %v, stderr %q; want a usage error naming %s", args, err, errw.String(), args[0])
		}
	}
}

// TestParseErrorAndUsagef pins the exit-code mapping: -h is success,
// any other parse failure and every Usagef is ErrUsage.
func TestParseErrorAndUsagef(t *testing.T) {
	var errw strings.Builder
	fs := NewFlagSet("t", &errw)
	Bind(fs, 0)
	if err := ParseError(fs.Parse([]string{"-h"})); err != nil {
		t.Errorf("-h: %v, want nil", err)
	}
	if !strings.Contains(errw.String(), "-workers") {
		t.Errorf("usage should go to the error stream:\n%s", errw.String())
	}
	if err := ParseError(fs.Parse([]string{"-nope"})); !errors.Is(err, ErrUsage) {
		t.Errorf("bad flag: %v, want ErrUsage", err)
	}
	errw.Reset()
	if err := Usagef(&errw, "t: -x %d is bad", 3); !errors.Is(err, ErrUsage) || errw.String() != "t: -x 3 is bad\n" {
		t.Errorf("Usagef = %v, wrote %q", err, errw.String())
	}
}
