package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"chipletqc/internal/analytic"
	"chipletqc/internal/cli"
	"chipletqc/internal/report"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
)

// TestRunSweepSmoke is a tiny end-to-end run of the default Fig. 4 sweep
// at reduced scale.
func TestRunSweepSmoke(t *testing.T) {
	var out, errs strings.Builder
	err := run(context.Background(), []string{"-batch", "50", "-max", "40", "-sigma", "0.014", "-step", "0.06", "-workers", "3"}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "Collision-free yield vs qubits") {
		t.Errorf("missing sweep table header in output:\n%s", got)
	}
	if !strings.Contains(got, "Optimal frequency step per precision") {
		t.Errorf("missing optimum summary in output:\n%s", got)
	}
}

// TestRunChipletsSmoke exercises the -chiplets mode and CSV emission.
func TestRunChipletsSmoke(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-chiplets", "-batch", "50", "-csv"}, &out, &errs); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "chiplet,yield") {
		t.Errorf("missing CSV header in output:\n%s", out.String())
	}
}

// TestRunWorkerCountInvariance asserts the CLI output is identical for
// any -workers value.
func TestRunWorkerCountInvariance(t *testing.T) {
	render := func(workers string) string {
		var out, errs strings.Builder
		if err := run(context.Background(), []string{"-batch", "80", "-max", "30", "-workers", workers}, &out, &errs); err != nil {
			t.Fatalf("run(-workers %s): %v", workers, err)
		}
		return out.String()
	}
	if serial, parallel := render("1"), render("8"); serial != parallel {
		t.Error("-workers 1 and -workers 8 rendered different reports")
	}
}

// TestRunAdaptivePrecision exercises the -precision flag end to end:
// the sweep reports trials and CI bounds, extreme-yield sizes stop
// before the full batch, and the report is worker-count invariant.
func TestRunAdaptivePrecision(t *testing.T) {
	render := func(workers string) string {
		var out, errs strings.Builder
		err := run(context.Background(), []string{
			"-batch", "5000", "-max", "30", "-sigma", "0.006", "-step", "0.06",
			"-precision", "0.02", "-workers", workers,
		}, &out, &errs)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	got := render("2")
	if !strings.Contains(got, "trials") || !strings.Contains(got, "ci_lo") {
		t.Errorf("adaptive run should report trials and CI columns:\n%s", got)
	}
	// Scaling-goal precision yields ~1 at these sizes, so the adaptive
	// run must stop at the first checkpoint instead of the 5000 budget.
	if !strings.Contains(got, "1.0000  250") {
		t.Errorf("near-certain yield should stop at the first checkpoint:\n%s", got)
	}
	if parallel := render("7"); parallel != got {
		t.Error("adaptive report differs across worker counts")
	}
}

// TestRunRejectsUnknownFlag pins flag parsing: unknown flags surface as
// errors, with diagnostics on the error stream rather than mixed into
// the report stream.
func TestRunRejectsUnknownFlag(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &out, &errs); err == nil {
		t.Error("unknown flag should return an error")
	}
	if out.Len() != 0 {
		t.Errorf("flag diagnostics leaked into the report stream:\n%s", out.String())
	}
	if !strings.Contains(errs.String(), "definitely-not-a-flag") {
		t.Errorf("error stream should name the bad flag:\n%s", errs.String())
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

// TestRunRejectsNonFinitePolicy: a trial-policy flag no policy can take
// is a usage error that names the flag, as a negative -batch is, not a
// silent fixed-batch run or a runtime error.
func TestRunRejectsNonFinitePolicy(t *testing.T) {
	for _, args := range [][]string{
		{"-precision", "NaN"},
		{"-precision", "+Inf"},
		{"-relprecision", "NaN"},
		{"-relprecision", "+Inf"},
		{"-sampling", "bogus"},
	} {
		var out, errs strings.Builder
		err := run(context.Background(), append(args, "-max", "20", "-batch", "300"), &out, &errs)
		if !errors.Is(err, cli.ErrUsage) || !strings.Contains(errs.String(), args[0]) || out.Len() != 0 {
			t.Errorf("%v: err = %v, stderr %q; want cli.ErrUsage naming %s and no report", args, err, errs.String(), args[0])
		}
	}
}

// TestRunBatchZeroIsScenarioPolicy pins -batch 0: it runs the
// scenario's batch instead of reporting zero-trial yields, and a
// negative batch is a usage error.
func TestRunBatchZeroIsScenarioPolicy(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-batch", "0", "-max", "20", "-sigma", "0.014", "-step", "0.06", "-csv"}, &out, &errs); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := fmt.Sprintf(",%d,", scenario.Paper().Trials.MonoBatch)
	if strings.Contains(out.String(), ",0,0.0000,1.0000") || !strings.Contains(out.String(), want) {
		t.Errorf("-batch 0 should run the paper scenario's %d trials:\n%s", scenario.Paper().Trials.MonoBatch, out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-batch", "-1"}, &out, &errs); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("-batch -1: err = %v, want cli.ErrUsage", err)
	}
}

// TestRunAnalyticColumn pins -analytic: the sweep gains an analytic
// column holding analytic.DeviceYield of each row's device under the
// scenario's thresholds and the row's plan step and sigma.
func TestRunAnalyticColumn(t *testing.T) {
	var out, errs strings.Builder
	err := run(context.Background(), []string{"-analytic", "-csv", "-scenario", scenario.RelaxedThresholdsName,
		"-batch", "50", "-max", "40", "-sigma", "0.03", "-step", "0.05"}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := scenario.MustLookup(scenario.RelaxedThresholdsName)
	sweep, _, _ := strings.Cut(out.String(), "\n\n")
	lines := strings.Split(sweep, "\n")
	if lines[0] != "step_GHz,sigma_GHz,qubits,yield,trials,ci_lo,ci_hi,analytic" {
		t.Fatalf("sweep header %q lacks the analytic column", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("sweep has no rows:\n%s", out.String())
	}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		step, _ := strconv.ParseFloat(f[0], 64)
		sigma, _ := strconv.ParseFloat(f[1], 64)
		qubits, _ := strconv.Atoi(f[2])
		plan := s.Fab.Plan
		plan.Step = step
		d := topo.MonolithicDevice(topo.MonolithicSpec(qubits))
		if want := report.F(analytic.DeviceYield(d, plan, sigma, s.Params), 4); f[7] != want {
			t.Errorf("row %q: analytic %s, want %s", line, f[7], want)
		}
	}
}
