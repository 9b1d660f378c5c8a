// Command mcmsim fabricates chiplet batches, assembles multi-chip
// modules, and compares them against monolithic devices in yield and
// average two-qubit infidelity (paper Sections V, VII-C1/C2; Figs. 8-9).
//
// The full-figure modes run the registered "fig8"/"fig9" experiments
// from the experiment registry (the same artifacts cmd/figures emits);
// the single-system mode drives the ctx-first assembly API directly.
//
// Usage examples:
//
//	mcmsim -chiplet 20 -rows 3 -cols 3            # one MCM configuration
//	mcmsim -fig8 -batch 2000 -max 500             # full yield comparison (registry artifact)
//	mcmsim -fig9 -batch 2000 -max 500             # E_avg ratio heatmaps (registry artifact)
//	mcmsim -fig8 -scenario improved-links         # run under a non-paper device scenario
//	mcmsim -fig8 -workers 8                       # pin the worker-pool size
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"chipletqc/internal/assembly"
	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/mcm"
	"chipletqc/internal/report"
	"chipletqc/internal/scenario"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "mcmsim:", err)
		os.Exit(1)
	}
}

// errUsage marks argument errors the FlagSet has already reported to
// the error stream; main exits 2 without repeating them.
var errUsage = errors.New("usage error")

// run executes the tool against args, writing reports to out. It is the
// testable core of the binary.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("mcmsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		scen      = fs.String("scenario", scenario.PaperName, "device scenario to run under (see `figures -scenarios`)")
		chiplet   = fs.Int("chiplet", 20, "chiplet size in qubits (catalog: 10..250)")
		rows      = fs.Int("rows", 2, "MCM rows")
		cols      = fs.Int("cols", 2, "MCM cols")
		batch     = fs.Int("batch", 0, "chiplet fabrication batch size (0 = the scenario's policy; paper 10000)")
		mono      = fs.Int("mono", 0, "monolithic Monte Carlo batch size (0 = the scenario's policy; paper 10000)")
		maxQ      = fs.Int("max", 500, "largest system size for -fig8/-fig9")
		seed      = fs.Int64("seed", 1, "RNG seed")
		workers   = fs.Int("workers", 0, "parallel workers (0 = all CPU cores; results identical either way)")
		precision = fs.Float64("precision", 0, "adaptive mode: stop each yield simulation once its 95% CI half-width reaches this (0 = the scenario's policy; negative forces fixed batch)")
		maxTrials = fs.Int("maxtrials", 0, "adaptive mode trial budget per simulation (0 = the scenario's policy, then batch size; negative resets)")
		relPrec   = fs.Float64("relprecision", 0, "adaptive mode relative target: stop once the CI half-width reaches this fraction of the yield (0 = the scenario's policy; negative disables)")
		smpl      = fs.String("sampling", "", "yield estimator: plain or importance (\"\" = the scenario's policy; none = unlabelled plain counting)")
		fig8      = fs.Bool("fig8", false, "run the registered fig8 experiment (full yield comparison)")
		fig9      = fs.Bool("fig9", false, "run the registered fig9 experiment (E_avg ratio heatmaps)")
		csv       = fs.Bool("csv", false, "emit CSV")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	scn, err := scenario.Lookup(*scen)
	if err != nil {
		return err
	}
	cfg := eval.ConfigFor(scn, *seed)
	if *batch > 0 {
		cfg.ChipletBatch = *batch
	}
	if *mono > 0 {
		cfg.MonoBatch = *mono
	}
	cfg.MaxQubits = *maxQ
	cfg.Workers = *workers
	// 0 inherits the scenario's trial policy; negative forces fixed-batch.
	cfg.ApplyTrialPolicyOverrides(*precision, *maxTrials)
	cfg.ApplySamplingOverrides(*smpl, *relPrec)
	if err := cfg.Sampling.Validate(); err != nil {
		return err
	}

	switch {
	case *fig8:
		return experiment.RunAndRender(ctx, "fig8", cfg, out, *csv)
	case *fig9:
		return experiment.RunAndRender(ctx, "fig9", cfg, out, *csv)
	default:
		return runSingle(ctx, scn, cfg, *chiplet, *rows, *cols, out, *csv)
	}
}

func runSingle(ctx context.Context, scn scenario.Scenario, cfg eval.Config, chiplet, rows, cols int, out io.Writer, csv bool) error {
	spec, err := scn.SpecForQubits(chiplet)
	if err != nil {
		return err
	}
	grid := mcm.Grid{Rows: rows, Cols: cols, Spec: spec}
	bcfg := scn.BatchConfig(cfg.Seed, nil, cfg.Workers)
	b, err := assembly.Fabricate(ctx, spec, cfg.ChipletBatch, bcfg)
	if err != nil {
		return err
	}
	mods, st, err := assembly.Assemble(ctx, b, grid, scn.AssembleConfig(cfg.Seed))
	if err != nil {
		return err
	}

	tb := report.New(fmt.Sprintf("MCM assembly: %s (scenario %s)", grid, scn.Name), "metric", "value")
	tb.Add("chiplets fabricated", st.BatchSize)
	tb.Add("collision-free chiplets", st.FreeChiplets)
	tb.Add("chiplet yield", report.F(st.ChipletYield, 4))
	tb.Add("complete MCMs", st.MCMs)
	tb.Add("chips used", st.ChipsUsed)
	tb.Add("leftover chiplets", st.Leftover)
	tb.Add("linked qubits per MCM", st.LinkedQubits)
	tb.Add("assembly yield", report.F(st.AssemblyYield, 4))
	tb.Add("post-assembly yield", report.F(st.PostAssemblyYield, 4))
	if len(mods) > 0 {
		var sum float64
		for _, m := range mods {
			sum += m.EAvg()
		}
		tb.Add("mean E_avg across MCMs", report.F(sum/float64(len(mods)), 5))
		tb.Add("best MCM E_avg", report.F(mods[0].EAvg(), 5))
		tb.Add("worst MCM E_avg", report.F(mods[len(mods)-1].EAvg(), 5))
	}
	return emit(tb, out, csv)
}

func emit(tb *report.Table, out io.Writer, csv bool) error {
	if csv {
		return tb.WriteCSV(out)
	}
	return tb.WriteText(out)
}
