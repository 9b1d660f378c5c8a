package experiment

import (
	"context"
	"fmt"
	"math"

	"chipletqc/internal/eval"
	"chipletqc/internal/mcm"
	"chipletqc/internal/report"
)

// The catalog registers one experiment per figure/table of the paper's
// evaluation section, in paper order. Each run function builds the
// artifact payload table (the rendering the per-figure CLI writers once
// carried inline) and reports the Monte Carlo trials it scheduled.
//
// Per-experiment scale knobs come from the eval.Config registry fields
// (Fig4MaxQubits, Fig6Batch, Fig6MaxDim, Fig10Samples); everything else
// from the shared MonoBatch/ChipletBatch/MaxQubits.

func init() {
	Register(New("fig1", "yield and mean infidelity vs module size",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			rows, err := eval.Fig1(ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New("Fig. 1: yield and mean infidelity vs module size",
				"qubits", "yield", "mean_two_qubit_infidelity")
			for _, r := range rows {
				tb.Add(r.Qubits, report.F(r.Yield, 4), report.F(r.EAvg, 5))
			}
			return tb, cfg.ChipletBatch * len(cfg.ResolvedScenario().Catalog), nil
		}))

	Register(New("fig2", "illustrative wafer output, monolithic vs chiplet",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			r := eval.Fig2(9, 4, 7)
			tb := report.New("Fig. 2: wafer output with 7 fatal defects per batch",
				"architecture", "dies", "good_devices")
			tb.Add("monolithic", r.MonoDies, r.MonoGood)
			tb.Add("chiplet (4 per monolithic die)", r.ChipletDies, r.ChipletGood)
			return tb, 0, nil
		}))

	Register(New("fig3b", "CX infidelity box plots by processor size",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			sums, err := eval.Fig3b(ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New("Fig. 3(b): CX infidelity box plots by processor size",
				"qubits", "min", "q1", "median", "q3", "max", "mean")
			for i, s := range sums {
				tb.Add(eval.Fig3bSizes[i], report.F(s.Min, 5), report.F(s.Q1, 5),
					report.F(s.Median, 5), report.F(s.Q3, 5), report.F(s.Max, 5),
					report.F(s.Mean, 5))
			}
			return tb, 0, nil
		}))

	Register(New("fig4", "collision-free yield vs qubits (step x sigma sweep)",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			cells, err := eval.Fig4(ctx, cfg, cfg.Fig4MaxQubits)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New("Fig. 4: collision-free yield vs qubits",
				"step_GHz", "sigma_GHz", "qubits", "yield", "trials", "ci_lo", "ci_hi")
			trials := 0
			for _, c := range cells {
				for _, p := range c.Points {
					trials += p.Trials
					tb.Add(report.F(c.Step, 3), report.F(c.Sigma, 4), p.Qubits, report.F(p.Yield, 4),
						p.Trials, report.F(p.CILo, 4), report.F(p.CIHi, 4))
				}
			}
			return tb, trials, nil
		}))

	Register(New("fig6", "MCM configurability from a 20q chiplet batch",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			res, err := eval.Fig6(ctx, cfg, cfg.Fig6Batch, cfg.Fig6MaxDim)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New(
				fmt.Sprintf("Fig. 6: MCM configurability (20q chiplets, batch %d, yield %.4f)",
					res.Batch, res.Yield),
				"dim", "chips", "log10_configurations", "max_assembled_mcms")
			for _, r := range res.Rows {
				tb.Add(fmt.Sprintf("%dx%d", r.Dim, r.Dim), r.Chips,
					report.F(r.Log10Configs, 1), r.MaxMCMs)
			}
			return tb, res.Batch, nil
		}))

	Register(New("fig7", "CX infidelity vs detuning calibration scatter",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			res, err := eval.Fig7(ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New(
				fmt.Sprintf("Fig. 7: CX infidelity vs detuning (median %.4f, mean %.4f)",
					res.Median, res.Mean),
				"detuning_GHz", "avg_cx_infidelity")
			for _, p := range res.Points {
				tb.Add(report.F(p.Detuning, 4), report.F(p.Infidelity, 5))
			}
			return tb, 0, nil
		}))

	Register(New("fig8", "yield vs qubits, MCM vs monolithic, with improvements",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			res, err := eval.Fig8(ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New("Fig. 8: yield vs qubits, MCM (nominal and 100x bond failure) vs monolithic",
				"chiplet", "dim", "qubits", "chiplet_yield", "mcm_yield", "mcm_yield_100x", "mono_yield",
				"mono_trials", "mono_ci_lo", "mono_ci_hi")
			catalog := cfg.ResolvedScenario().Catalog
			trials := cfg.ChipletBatch * len(catalog)
			monoSeen := map[int]bool{}
			for _, p := range res.Points {
				if !monoSeen[p.Qubits] {
					monoSeen[p.Qubits] = true
					trials += p.MonoTrials
				}
				tb.Add(p.Grid.Spec.Qubits(), fmt.Sprintf("%dx%d", p.Grid.Rows, p.Grid.Cols),
					p.Qubits, report.F(p.ChipletYield, 4), report.F(p.MCMYield, 4),
					report.F(p.MCMYield100x, 4), report.F(p.MonoYield, 4),
					p.MonoTrials, report.F(p.MonoCILo, 4), report.F(p.MonoCIHi, 4))
			}
			tb.Add("", "", "", "", "", "", "", "", "", "")
			for _, cs := range catalog {
				if v, ok := res.Improvements[cs.Qubits]; ok {
					tb.Add(cs.Qubits, "avg-improvement", "", "", report.F(v, 2)+"x", "", "", "", "", "")
				} else {
					tb.Add(cs.Qubits, "avg-improvement", "", "", "inf (mono 0%)", "", "", "", "", "")
				}
			}
			return tb, trials, nil
		}))

	Register(New("fig9", "E_avg MCM/monolithic heatmaps across link qualities",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			res, err := eval.Fig9(ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New("Fig. 9: E_avg,MCM / E_avg,Mono heatmaps (square MCMs)",
				"link_quality", "chiplet", "dim", "qubits", "ratio")
			for _, name := range eval.Fig9Ratios {
				for _, c := range res[name] {
					ratio := "n/a (mono 0%)"
					if c.MonoAvailable && !math.IsNaN(c.Ratio) {
						ratio = report.F(c.Ratio, 4)
					}
					tb.Add(name, c.Grid.Spec.Qubits(),
						fmt.Sprintf("%dx%d", c.Grid.Rows, c.Grid.Cols), c.Qubits, ratio)
				}
			}
			return tb, fig9Trials(cfg), nil
		}))

	Register(New("fig10", "benchmark fidelity ratio MCM/monolithic",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			grids := mcm.EnumerateGridsFrom(cfg.ResolvedScenario().Catalog, cfg.MaxQubits)
			pts, err := eval.Fig10(ctx, cfg, grids, cfg.Fig10Samples)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New("Fig. 10: benchmark fidelity ratio MCM/monolithic",
				"chiplet", "dim", "qubits", "bench", "log_ratio", "square", "note")
			for _, p := range pts {
				logS, note := report.F(p.LogRatio, 3), ""
				if p.MonoZero {
					logS, note = "+inf", "mono 0% yield (red X)"
				} else if math.IsNaN(p.LogRatio) {
					logS, note = "nan", "no MCM instances"
				}
				tb.Add(p.Grid.Spec.Qubits(), fmt.Sprintf("%dx%d", p.Grid.Rows, p.Grid.Cols),
					p.Qubits, p.Bench, logS, p.Square, note)
			}
			return tb, gridTrials(cfg, grids), nil
		}))

	Register(New("fig10corr", "rank correlation of E_avg ratio vs application advantage",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			// The paper's closing Fig. 10(b) observation, quantified:
			// rank correlation between each square system's Fig. 9
			// state-of-art E_avg ratio and its per-gate application
			// advantage. Experiments are deliberately independent (any
			// subset is runnable by name), so this re-runs both
			// pipelines — restricted to the square systems and the
			// state-of-art ratio, so a full-catalog campaign pays
			// roughly the square-grid slice of fig9/fig10 again, not a
			// full doubling. Run `-experiments fig10corr` alone when only the
			// correlation is wanted.
			cells, err := eval.Fig9StateOfArt(ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			grids := mcm.SquareGridsFrom(cfg.ResolvedScenario().Catalog, cfg.MaxQubits)
			pts, err := eval.Fig10(ctx, cfg, grids, cfg.Fig10Samples)
			if err != nil {
				return nil, 0, err
			}
			corr := eval.Fig10Correlation(cells, pts)
			tb := report.New("Fig. 10(b) correlation: E_avg ratio vs per-gate application advantage (square MCMs)",
				"system", "eavg_ratio", "per_gate_log_ratio")
			for i, s := range corr.Systems {
				tb.Add(s, report.F(corr.EAvgRatio[i], 4), fmt.Sprintf("%.3g", corr.LogRatio[i]))
			}
			tb.Add("", "", "")
			tb.Add("spearman", report.F(corr.Spearman, 3), "")
			tb.Add("pearson", report.F(corr.Pearson, 3), "")
			return tb, 2 * gridTrials(cfg, grids), nil
		}))

	Register(New("table2", "compiled benchmark details (1q / 2q / 2q critical)",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			rows, err := eval.Table2(ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New("Table II: compiled benchmark details",
				"chiplet", "dim", "qubits", "bench", "1q", "2q", "2q_critical")
			for _, r := range rows {
				tb.Add(r.ChipletQubits, r.Dim, r.SystemQubits, r.Bench,
					r.Counts.OneQ, r.Counts.TwoQ, r.Counts.TwoQCritical)
			}
			return tb, 0, nil
		}))

	Register(New("eq1", "Section V-C fabrication-output worked example",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			r, err := eval.Eq1Example(ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			tb := report.New("Eq. 1 / Section V-C: fabrication output example (B=1000, 100q systems)",
				"metric", "value")
			tb.Add("monolithic yield Ym", report.F(r.MonoYield, 4))
			tb.Add("chiplet yield Yc (10q)", report.F(r.ChipletYield, 4))
			tb.Add("monolithic devices", report.F(r.MonoDevices, 0))
			tb.Add("MCM devices (Eq. 1)", report.F(r.MCMDevices, 0))
			tb.Add("gain", report.F(r.Gain, 2)+"x")
			return tb, 2 * 1000, nil
		}))
}

// gridTrials counts the fixed-batch Monte Carlo trials the Fig. 9/10
// pipelines schedule per grid: the wafer-area-scaled chiplet batch plus
// the monolithic batch (the mono scan may stop early; this is the
// scheduled budget).
func gridTrials(cfg eval.Config, grids []mcm.Grid) int {
	total := 0
	for _, g := range grids {
		total += cfg.ChipletBatch*g.Chips() + cfg.MonoBatch
	}
	return total
}

func fig9Trials(cfg eval.Config) int {
	return gridTrials(cfg, mcm.SquareGridsFrom(cfg.ResolvedScenario().Catalog, cfg.MaxQubits))
}
