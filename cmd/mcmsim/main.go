// Command mcmsim fabricates chiplet batches, assembles multi-chip
// modules, and compares them against monolithic devices in yield and
// average two-qubit infidelity (paper Sections V, VII-C1/C2; Figs. 8-9).
//
// The full-figure modes run the registered "fig8"/"fig9" experiments
// from the experiment registry (the same artifacts campaign -out writes);
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
	"fmt"
	"io"

	"chipletqc/internal/assembly"
	"chipletqc/internal/cli"
	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/mcm"
	"chipletqc/internal/report"
	"chipletqc/internal/scenario"
)

func main() { cli.Main("mcmsim", run) }

// run executes the tool against args, writing reports to out. It is the
// testable core of the binary.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := cli.NewFlagSet("mcmsim", errw)
	rf := cli.Bind(fs, cli.Scenario|cli.TrialPolicy)
	var (
		chiplet = fs.Int("chiplet", 20, "chiplet size in qubits (catalog: 10..250)")
		rows    = fs.Int("rows", 2, "MCM rows")
		cols    = fs.Int("cols", 2, "MCM cols")
		batch   = fs.Int("batch", 0, "chiplet fabrication batch size (0 = the scenario's policy; paper 10000)")
		mono    = fs.Int("mono", 0, "monolithic Monte Carlo batch size (0 = the scenario's policy; paper 10000)")
		maxQ    = fs.Int("max", 500, "largest system size for -fig8/-fig9")
		fig8    = fs.Bool("fig8", false, "run the registered fig8 experiment (full yield comparison)")
		fig9    = fs.Bool("fig9", false, "run the registered fig9 experiment (E_avg ratio heatmaps)")
		csv     = fs.Bool("csv", false, "emit CSV")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseError(err)
	}
	if *batch < 0 {
		return cli.Usagef(errw, "mcmsim: -batch %d is negative (0 = the scenario's policy)", *batch)
	}

	cfg, err := rf.Eval()
	if err != nil {
		return err
	}
	if *batch > 0 {
		cfg.ChipletBatch = *batch
	}
	if *mono > 0 {
		cfg.MonoBatch = *mono
	}
	cfg.MaxQubits = *maxQ

	switch {
	case *fig8:
		return experiment.RunAndRender(ctx, "fig8", cfg, out, *csv)
	case *fig9:
		return experiment.RunAndRender(ctx, "fig9", cfg, out, *csv)
	default:
		return runSingle(ctx, cfg.ResolvedScenario(), cfg, *chiplet, *rows, *cols, out, *csv)
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
	return cli.Emit(tb, out, csv)
}
