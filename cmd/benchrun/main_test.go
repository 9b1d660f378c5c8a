package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chipletqc/internal/cli"
)

// TestRunSingleSystemSmoke is a tiny end-to-end Fig. 10 run on one MCM
// system at reduced scale.
func TestRunSingleSystemSmoke(t *testing.T) {
	var out, errs strings.Builder
	err := run(context.Background(), []string{
		"-chiplet", "10", "-rows", "1", "-cols", "2",
		"-batch", "100", "-mono", "100", "-samples", "1", "-workers", "2",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "Fig. 10: benchmark fidelity ratio") {
		t.Errorf("missing Fig. 10 table header in output:\n%s", got)
	}
	// All seven benchmarks should have produced a row for the 1x2 system.
	if n := strings.Count(got, "1x2"); n < 7 {
		t.Errorf("expected >= 7 benchmark rows for the 1x2 system, got %d:\n%s", n, got)
	}
}

// TestRunPerfWritesRecord exercises -perf: the machine-readable yield
// hot-path record lands on disk with sane ns/op, trials/sec, and
// allocs/op fields.
func TestRunPerfWritesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_yield.json")
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-perf", "-batch", "200", "-perfout", path}, &out, &errs); err != nil {
		t.Fatalf("run -perf: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("perf record not written: %v", err)
	}
	var records []perfRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("perf record is not valid JSON: %v", err)
	}
	want := []string{
		"yield_simulate_fixed",
		"yield_simulate_adaptive_1pct",
		"yield_simulate_importance",
		"yield_tight_thresholds_e2e",
	}
	if len(records) != len(want) {
		t.Fatalf("records = %d, want %d (fixed + adaptive + importance + tight e2e)",
			len(records), len(want))
	}
	for i, r := range records {
		if r.Name != want[i] {
			t.Errorf("record %d named %q, want %q", i, r.Name, want[i])
		}
		if r.NsPerOp <= 0 || r.TrialsPerSec <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Name, r)
		}
		// The e2e record runs the tight-thresholds scenario to its own
		// adaptive stopping rule, so only the fixed-budget records are
		// bounded by the -batch flag.
		if r.TrialsUsed <= 0 || (r.Name != "yield_tight_thresholds_e2e" && r.TrialsUsed > 200) {
			t.Errorf("%s: trials_used = %d, want in (0, 200]", r.Name, r.TrialsUsed)
		}
		if r.AllocsPerOp < 0 {
			t.Errorf("%s: negative allocs", r.Name)
		}
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("missing confirmation line:\n%s", out.String())
	}
}

// TestRunPerfCheck exercises -perfcheck against both a generous and an
// impossible committed baseline: the generous one passes, the
// impossible one (1 ns/op) must be reported as a regression beyond the
// tolerance.
func TestRunPerfCheck(t *testing.T) {
	dir := t.TempDir()
	generous := filepath.Join(dir, "generous.json")
	impossible := filepath.Join(dir, "impossible.json")
	base := []perfRecord{
		{Name: "yield_simulate_fixed", NsPerOp: 1e15},
		{Name: "yield_simulate_adaptive_1pct", NsPerOp: 1e15},
		{Name: "yield_simulate_importance", NsPerOp: 1e15},
	}
	writeRecords := func(path string, rs []perfRecord) {
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeRecords(generous, base)
	for i := range base {
		base[i].NsPerOp = 1
	}
	writeRecords(impossible, base)

	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-perfcheck", generous, "-batch", "100"}, &out, &errs); err != nil {
		t.Errorf("perfcheck vs generous baseline should pass: %v", err)
	}
	if !strings.Contains(out.String(), "Perf check") {
		t.Errorf("missing perf check table:\n%s", out.String())
	}

	out.Reset()
	err := run(context.Background(), []string{"-perfcheck", impossible, "-batch", "100"}, &out, &errs)
	if err == nil {
		t.Fatal("perfcheck vs 1 ns/op baseline should fail")
	}
	if !strings.Contains(err.Error(), "perf regression") {
		t.Errorf("unexpected failure: %v", err)
	}
}

// TestRunRejectsBadChiplet pins error propagation: a non-catalog chiplet
// size surfaces as an error, not a process exit.
func TestRunRejectsBadChiplet(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-chiplet", "33"}, &out, &errs); err == nil {
		t.Error("non-catalog chiplet size should return an error")
	}
}

// TestRunRejectsUnknownFlag pins flag parsing.
func TestRunRejectsUnknownFlag(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &out, &errs); err == nil {
		t.Error("unknown flag should return an error")
	}
	if out.Len() != 0 {
		t.Errorf("flag diagnostics leaked into the report stream:\n%s", out.String())
	}
}

// TestRunHelpIsNotAnError pins -h: usage prints to the error stream and
// run returns nil so the process exits 0.
func TestRunHelpIsNotAnError(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-h"}, &out, &errs); err != nil {
		t.Errorf("-h should not be an error, got %v", err)
	}
	if !strings.Contains(errs.String(), "-workers") {
		t.Errorf("usage should document -workers:\n%s", errs.String())
	}
}

// TestRunRejectsNegativeBatch: -batch 0 means the scenario's policy;
// a negative batch is a usage error, not a silent 0.
func TestRunRejectsNegativeBatch(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-batch", "-5"}, &out, &errs); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("err = %v, want cli.ErrUsage", err)
	}
}

// TestRunRejectsEmptyGrid: a grid with no rows is an error, not a
// panic inside a Fig. 10 worker.
func TestRunRejectsEmptyGrid(t *testing.T) {
	var out, errs strings.Builder
	err := run(context.Background(), []string{"-chiplet", "10", "-rows", "0", "-cols", "2",
		"-batch", "20", "-mono", "20", "-samples", "1"}, &out, &errs)
	if err == nil || !strings.Contains(err.Error(), "0x2") {
		t.Errorf("err = %v, want the grid validation error", err)
	}
}
