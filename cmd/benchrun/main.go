// Command benchrun compiles the paper's benchmark suite onto MCM and
// monolithic architectures and reports compiled gate counts (Table II)
// and application fidelity ratios (Fig. 10).
//
// The full-catalog modes (-table2, -all) run the registered "table2"
// and "fig10" experiments from the experiment registry; the
// single-system and -square modes drive the ctx-first eval API with
// custom grid selections.
//
// Usage examples:
//
//	benchrun -table2                       # Table II gate counts (registry artifact)
//	benchrun -chiplet 40 -rows 2 -cols 2   # Fig. 10 for one system
//	benchrun -all -max 300                 # Fig. 10 over enumerated systems (registry artifact)
//	benchrun -all -workers 8               # pin the worker-pool size
//	benchrun -perf                         # write BENCH_yield.json perf record
//	benchrun -perfcheck BENCH_yield.json   # fail on >10% ns/op regression vs the committed baseline
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"testing"

	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/mcm"
	"chipletqc/internal/report"
	"chipletqc/internal/sampling"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

// errUsage marks argument errors the FlagSet has already reported to
// the error stream; main exits 2 without repeating them.
var errUsage = errors.New("usage error")

// run executes the tool against args, writing reports to out. It is the
// testable core of the binary: flag errors, compile failures, and report
// failures surface as returned errors instead of process exits.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		scen      = fs.String("scenario", scenario.PaperName, "device scenario to run under (see `figures -scenarios`)")
		table2    = fs.Bool("table2", false, "print Table II compiled benchmark details (registry artifact)")
		all       = fs.Bool("all", false, "evaluate Fig. 10 over all enumerated systems (registry artifact)")
		square    = fs.Bool("square", false, "restrict -all to square systems (Fig. 10b)")
		chiplet   = fs.Int("chiplet", 20, "chiplet size for single-system evaluation")
		rows      = fs.Int("rows", 2, "MCM rows")
		cols      = fs.Int("cols", 2, "MCM cols")
		maxQ      = fs.Int("max", 500, "largest system size for -all")
		batch     = fs.Int("batch", 2000, "chiplet batch size (0 = the scenario's policy)")
		mono      = fs.Int("mono", 2000, "monolithic batch size (0 = the scenario's policy)")
		samples   = fs.Int("samples", 3, "device instances averaged per architecture")
		seed      = fs.Int64("seed", 1, "RNG seed")
		workers   = fs.Int("workers", 0, "parallel workers (0 = all CPU cores; results identical either way)")
		precision = fs.Float64("precision", 0, "adaptive mode: stop yield simulations once their 95% CI half-width reaches this (0 = the scenario's policy; negative forces fixed batch)")
		maxTrials = fs.Int("maxtrials", 0, "adaptive mode trial budget per simulation (0 = the scenario's policy, then batch size; negative resets)")
		relPrec   = fs.Float64("relprecision", 0, "adaptive mode relative target: stop once the CI half-width reaches this fraction of the yield (0 = the scenario's policy; negative disables)")
		smpl      = fs.String("sampling", "", "yield estimator: plain or importance (\"\" = the scenario's policy; none = unlabelled plain counting)")
		perf      = fs.Bool("perf", false, "run the yield hot-path micro-benchmark and write a machine-readable perf record")
		perfOut   = fs.String("perfout", "BENCH_yield.json", "perf record output path for -perf")
		perfCheck = fs.String("perfcheck", "", "compare a fresh micro-benchmark against this committed baseline record; exit non-zero on regression")
		perfTol   = fs.Float64("perftol", 0.10, "allowed fractional ns/op regression for -perfcheck (0.10 = 10%)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
		csv       = fs.Bool("csv", false, "emit CSV")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	// Profiling hooks: attributing a yield-throughput regression needs
	// the same pprof view the micro-benchmarks get, on the real binary.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(errw, "benchrun: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(errw, "benchrun: memprofile:", err)
			}
		}()
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
	cfg.Fig10Samples = *samples

	if *perfCheck != "" {
		return runPerfCheck(ctx, scn, *batch, *workers, *seed, *perfCheck, *perfTol, out)
	}
	if *perf {
		return runPerf(ctx, scn, *batch, *workers, *seed, *perfOut, out)
	}

	if *table2 {
		return experiment.RunAndRender(ctx, "table2", cfg, out, *csv)
	}
	if *all && !*square {
		return experiment.RunAndRender(ctx, "fig10", cfg, out, *csv)
	}

	// Custom grid selections (single system, or -all -square) drive the
	// ctx-first eval API directly.
	var grids []mcm.Grid
	if *all && *square {
		grids = mcm.SquareGridsFrom(scn.Catalog, *maxQ)
	} else {
		spec, err := scn.SpecForQubits(*chiplet)
		if err != nil {
			return err
		}
		grids = []mcm.Grid{{Rows: *rows, Cols: *cols, Spec: spec}}
	}

	pts, err := eval.Fig10(ctx, cfg, grids, *samples)
	if err != nil {
		return err
	}
	tb := report.New("Fig. 10: benchmark fidelity ratio (MCM / monolithic)",
		"chiplet", "dim", "qubits", "bench", "log_ratio", "ratio", "note")
	for _, p := range pts {
		note := ""
		logS, ratioS := report.F(p.LogRatio, 3), ""
		switch {
		case p.MonoZero:
			note = "mono 0% yield (paper red X)"
			logS, ratioS = "+inf", "inf"
		case math.IsNaN(p.LogRatio):
			note = "no MCM instances"
			logS, ratioS = "nan", "nan"
		default:
			ratioS = fmt.Sprintf("%.3g", p.Ratio())
		}
		tb.Add(p.Grid.Spec.Qubits(),
			fmt.Sprintf("%dx%d", p.Grid.Rows, p.Grid.Cols),
			p.Qubits, p.Bench, logS, ratioS, note)
	}
	return emit(tb, out, *csv)
}

func emit(tb *report.Table, out io.Writer, csv bool) error {
	if csv {
		return tb.WriteCSV(out)
	}
	return tb.WriteText(out)
}

// perfRecord is one machine-readable micro-benchmark measurement of the
// Monte Carlo yield hot path. cmd/benchrun -perf appends these to
// BENCH_yield.json so the perf trajectory (ns/op, trials/sec,
// allocs/op) is tracked across PRs by the CI benchmark artifact.
type perfRecord struct {
	Name         string  `json:"name"`
	Scenario     string  `json:"scenario"`
	Qubits       int     `json:"qubits"`
	Batch        int     `json:"batch"`
	Precision    float64 `json:"precision,omitempty"`
	TrialsUsed   int     `json:"trials_used"`
	Yield        float64 `json:"yield"`
	NsPerOp      float64 `json:"ns_per_op"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// measurePerf micro-benchmarks yield.Simulate on a 100-qubit device in
// fixed-batch, adaptive (1% precision), and importance-sampled
// (rare-event estimator, same fixed budget) modes,
// plus one end-to-end wall-time record of the tight-thresholds
// rare-event scenario (adaptive stop at 20% relative precision on a
// 24-qubit device). The records carry the scenario name so the CI perf
// trajectory distinguishes device worlds.
func measurePerf(ctx context.Context, scn scenario.Scenario, batch, workers int, seed int64) ([]perfRecord, error) {
	if batch <= 0 {
		batch = scn.Trials.ChipletBatch // -batch 0 = the scenario's policy, as elsewhere
	}
	d := topo.MonolithicDevice(topo.MonolithicSpec(100))
	base := scn.YieldConfig(batch, seed)
	base.Workers = workers
	// The fixed-mode record must stay fixed even under a scenario whose
	// trial policy is adaptive, or its ns/op is not comparable across
	// PRs; the adaptive record pins its own 1% precision below.
	base.Precision, base.MaxTrials, base.RelPrecision = 0, 0, 0
	base.Sampling = sampling.Spec{}

	measure := func(name, scnName string, dev *topo.Device, cfg yield.Config) (perfRecord, error) {
		res, err := yield.Simulate(ctx, dev, cfg) // warm-up + result snapshot
		if err != nil {
			return perfRecord{}, err
		}
		// Best-of-3: the minimum ns/op is far less sensitive to scheduler
		// noise than a single sample, which is what lets the perf gate
		// hold a tight tolerance without flaking.
		var br testing.BenchmarkResult
		for rep := 0; rep < 3; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := yield.Simulate(ctx, dev, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			if rep == 0 || r.NsPerOp() < br.NsPerOp() {
				br = r
			}
		}
		ns := float64(br.NsPerOp())
		rec := perfRecord{
			Name:        name,
			Scenario:    scnName,
			Qubits:      dev.N,
			Batch:       cfg.Batch,
			Precision:   cfg.Precision,
			TrialsUsed:  res.Batch,
			Yield:       res.Fraction(),
			NsPerOp:     ns,
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if ns > 0 {
			rec.TrialsPerSec = float64(res.Batch) / (ns / 1e9)
		}
		return rec, nil
	}

	adaptive := base
	adaptive.Precision = 0.01
	importanceCfg := base
	importanceCfg.Sampling = sampling.Spec{Method: sampling.Importance}
	var records []perfRecord
	for _, m := range []struct {
		name string
		cfg  yield.Config
	}{
		{"yield_simulate_fixed", base},
		{"yield_simulate_adaptive_1pct", adaptive},
		{"yield_simulate_importance", importanceCfg},
	} {
		rec, err := measure(m.name, scn.Name, d, m.cfg)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}

	// End-to-end rare-event record: the tight-thresholds scenario on a
	// 24-qubit device, run to its adaptive stopping rule rather than a
	// fixed batch. This is the wall-time the campaign engine actually
	// pays per rare-event data point — trial count and per-trial cost
	// together — so proposal-quality regressions that per-trial ns/op
	// cannot see (a worse proposal needs more trials) still trip the
	// gate.
	tight, err := scenario.Lookup(scenario.TightThresholdsName)
	if err != nil {
		return nil, err
	}
	td := topo.MonolithicDevice(topo.MonolithicSpec(24))
	tcfg := tight.YieldConfig(0, seed)
	tcfg.Workers = workers
	tcfg.Precision = 0
	tcfg.RelPrecision = 0.2
	tcfg.MaxTrials = 1 << 20
	rec, err := measure("yield_tight_thresholds_e2e", tight.Name, td, tcfg)
	if err != nil {
		return nil, err
	}
	records = append(records, rec)
	return records, nil
}

// runPerf measures the hot-path records and writes them as JSON to path.
func runPerf(ctx context.Context, scn scenario.Scenario, batch, workers int, seed int64, path string, out io.Writer) error {
	records, err := measurePerf(ctx, scn, batch, workers, seed)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := perfTable(records).WriteText(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s\n", path)
	return nil
}

// runPerfCheck measures the hot-path records and compares each ns/op
// against the committed baseline at path, failing on any fractional
// regression beyond tol. Records present on only one side are reported
// but never fail the check, so the benchmark set can evolve without
// lock-step baseline updates.
func runPerfCheck(ctx context.Context, scn scenario.Scenario, batch, workers int, seed int64, path string, tol float64, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("perfcheck baseline: %w", err)
	}
	var baseline []perfRecord
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("perfcheck baseline %s: %w", path, err)
	}
	base := map[string]perfRecord{}
	for _, r := range baseline {
		base[r.Name] = r
	}
	records, err := measurePerf(ctx, scn, batch, workers, seed)
	if err != nil {
		return err
	}
	tb := report.New(fmt.Sprintf("Perf check vs %s (tolerance %+.0f%%)", path, tol*100),
		"name", "baseline_ns", "current_ns", "delta", "verdict")
	var failures []string
	for _, r := range records {
		b, ok := base[r.Name]
		if !ok || b.NsPerOp <= 0 {
			tb.Add(r.Name, "-", fmt.Sprintf("%.0f", r.NsPerOp), "-", "new (not gated)")
			continue
		}
		delta := r.NsPerOp/b.NsPerOp - 1
		verdict := "ok"
		if delta > tol {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)",
				r.Name, b.NsPerOp, r.NsPerOp, delta*100))
		}
		tb.Add(r.Name, fmt.Sprintf("%.0f", b.NsPerOp), fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%+.1f%%", delta*100), verdict)
	}
	if err := tb.WriteText(out); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf regression beyond %.0f%%: %s", tol*100, strings.Join(failures, "; "))
	}
	return nil
}

// perfTable renders perf records for human reading.
func perfTable(records []perfRecord) *report.Table {
	tb := report.New("Yield hot-path micro-benchmark",
		"name", "trials", "ns_per_op", "trials_per_sec", "allocs_per_op")
	for _, r := range records {
		tb.Add(r.Name, r.TrialsUsed, fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.3g", r.TrialsPerSec), r.AllocsPerOp)
	}
	return tb
}
