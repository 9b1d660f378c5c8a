// Command yieldsim runs the collision-free yield Monte Carlo simulation
// of paper Section IV-B / Fig. 4: heavy-hex devices fabricated with
// per-qubit frequency noise, evaluated against the Table I collision
// criteria.
//
// Usage examples:
//
//	yieldsim                                # Fig. 4 sweep at defaults
//	yieldsim -sigma 0.014 -step 0.06 -max 500
//	yieldsim -scenario relaxed-thresholds   # simulate a non-paper device scenario
//	yieldsim -chiplets                      # catalog chiplet yields
//	yieldsim -workers 8                     # pin the worker-pool size
//	yieldsim -precision 0.01                # adaptive: stop at 1% CI half-width
//	yieldsim -scenario tight-thresholds -sampling importance -relprecision 0.2
//	                                        # rare-event mode: weighted estimator, +-20% relative CI
package main

import (
	"context"
	"fmt"
	"io"

	analyticpkg "chipletqc/internal/analytic"
	"chipletqc/internal/cli"
	"chipletqc/internal/fab"
	"chipletqc/internal/report"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

func main() { cli.Main("yieldsim", run) }

// run executes the tool against args, writing reports to out. It is the
// testable core of the binary: flag errors and report failures surface
// as returned errors instead of process exits.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := cli.NewFlagSet("yieldsim", errw)
	rf := cli.Bind(fs, cli.Scenario|cli.TrialPolicy)
	var (
		batch    = fs.Int("batch", 1000, "devices per Monte Carlo batch (0 = the scenario's policy)")
		sigma    = fs.Float64("sigma", 0, "fabrication precision in GHz (0 = sweep the paper's three values)")
		step     = fs.Float64("step", 0, "frequency plan step in GHz (0 = sweep 0.04-0.07)")
		maxQ     = fs.Int("max", 1000, "largest device size in qubits")
		chiplets = fs.Bool("chiplets", false, "report catalog chiplet yields instead of the size sweep")
		analytic = fs.Bool("analytic", false, "add the closed-form yield estimate next to Monte Carlo")
		csv      = fs.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseError(err)
	}
	if *batch < 0 {
		return cli.Usagef(errw, "yieldsim: -batch %d is negative (0 = the scenario's policy)", *batch)
	}
	policy, err := rf.Policy()
	if err != nil {
		return err
	}

	scn, err := rf.Scenario()
	if err != nil {
		return err
	}
	if *batch == 0 {
		*batch = scn.Trials.MonoBatch
		if *chiplets {
			*batch = scn.Trials.ChipletBatch
		}
	}
	cfg := scn.YieldConfig(*batch, rf.Seed())
	cfg.Workers = rf.Workers()
	if cfg.Policy, err = policy.Apply(cfg.Policy); err != nil {
		return err
	}

	if *chiplets {
		if *sigma > 0 {
			cfg.Model.Sigma = *sigma
		}
		if *step > 0 {
			cfg.Model.Plan.Step = *step
		}
		tb := report.New("Collision-free chiplet yields (Fig. 8b)",
			"chiplet", "yield", "trials", "ci_lo", "ci_hi")
		chipRes, err := yield.ChipletYields(ctx, cfg)
		if err != nil {
			return err
		}
		for _, r := range chipRes {
			tb.Add(r.Qubits, report.F(r.Fraction(), 4), r.Batch,
				report.F(r.CILo, 4), report.F(r.CIHi, 4))
		}
		return cli.Emit(tb, out, *csv)
	}

	steps := []float64{0.04, 0.05, 0.06, 0.07}
	if *step > 0 {
		steps = []float64{*step}
	}
	sigmas := []float64{fab.SigmaAsFabricated, fab.SigmaLaserTuned, fab.SigmaScalingGoal}
	if *sigma > 0 {
		sigmas = []float64{*sigma}
	}
	sizes := yield.SizeLadder(*maxQ)
	cells, err := yield.Sweep(ctx, steps, sigmas, sizes, cfg)
	if err != nil {
		return err
	}

	headers := []string{"step_GHz", "sigma_GHz", "qubits", "yield", "trials", "ci_lo", "ci_hi"}
	if *analytic {
		headers = append(headers, "analytic")
	}
	tb := report.New(
		fmt.Sprintf("Collision-free yield vs qubits (Fig. 4; batch %d)", *batch),
		headers...)
	for _, c := range cells {
		for _, p := range c.Points {
			row := []interface{}{
				report.F(c.Step, 3), report.F(c.Sigma, 4), p.Qubits, report.F(p.Yield, 4),
				p.Trials, report.F(p.CILo, 4), report.F(p.CIHi, 4),
			}
			if *analytic {
				dev := topo.MonolithicDevice(topo.MonolithicSpec(p.Qubits))
				plan := cfg.Model.Plan
				plan.Step = c.Step
				row = append(row, report.F(
					analyticpkg.DeviceYield(dev, plan, c.Sigma, cfg.Params), 4))
			}
			tb.Add(row...)
		}
	}
	if err := cli.Emit(tb, out, *csv); err != nil {
		return err
	}

	// Summarise the optimum step at each precision for quick reading.
	best := report.New("Optimal frequency step per precision (100-qubit device)",
		"sigma_GHz", "best_step_GHz", "yield")
	for _, s := range sigmas {
		bestStep, bestY := 0.0, -1.0
		for _, c := range cells {
			if c.Sigma != s {
				continue
			}
			for _, p := range c.Points {
				if p.Qubits >= 95 && p.Qubits <= 110 && p.Yield > bestY {
					bestY, bestStep = p.Yield, c.Step
				}
			}
		}
		if bestY >= 0 {
			best.Add(report.F(s, 4), report.F(bestStep, 3), report.F(bestY, 4))
		}
	}
	fmt.Fprintln(out)
	return cli.Emit(best, out, *csv)
}
