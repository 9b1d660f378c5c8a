// Command benchrun compiles the paper's benchmark suite onto MCM and
// monolithic architectures and reports application fidelity ratios
// (Fig. 10).
//
// It evaluates one MCM system through the ctx-first eval API. Fig. 10
// over every enumerated system is the registered "fig10" experiment
// (`campaign -experiments fig10`), and Table II the "table2" one.
//
// Usage examples:
//
//	benchrun -chiplet 40 -rows 2 -cols 2   # Fig. 10 for one system
//	benchrun -chiplet 40 -workers 8        # pin the worker-pool size
//	benchrun -perf                         # write BENCH_yield.json perf record
//	benchrun -perfcheck BENCH_yield.json   # fail on >10% ns/op regression vs the committed baseline
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"chipletqc/internal/cli"
	"chipletqc/internal/eval"
	"chipletqc/internal/mcm"
	"chipletqc/internal/report"
	"chipletqc/internal/sampling"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

func main() { cli.Main("benchrun", run) }

// run executes the tool against args, writing reports to out. It is the
// testable core of the binary: flag errors, compile failures, and report
// failures surface as returned errors instead of process exits.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := cli.NewFlagSet("benchrun", errw)
	rf := cli.Bind(fs, cli.Scenario|cli.TrialPolicy)
	var (
		chiplet   = fs.Int("chiplet", 20, "chiplet size for single-system evaluation")
		rows      = fs.Int("rows", 2, "MCM rows")
		cols      = fs.Int("cols", 2, "MCM cols")
		batch     = fs.Int("batch", 2000, "chiplet batch size (0 = the scenario's policy)")
		mono      = fs.Int("mono", 2000, "monolithic batch size (0 = the scenario's policy)")
		samples   = fs.Int("samples", 3, "device instances averaged per architecture")
		perf      = fs.Bool("perf", false, "run the yield hot-path micro-benchmark and write a machine-readable perf record")
		perfOut   = fs.String("perfout", "BENCH_yield.json", "perf record output path for -perf")
		perfCheck = fs.String("perfcheck", "", "compare a fresh micro-benchmark against this committed baseline record; exit non-zero on regression")
		perfTol   = fs.Float64("perftol", 0.10, "allowed fractional ns/op regression for -perfcheck (0.10 = 10%)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
		csv       = fs.Bool("csv", false, "emit CSV")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseError(err)
	}
	if *batch < 0 {
		return cli.Usagef(errw, "benchrun: -batch %d is negative (0 = the scenario's policy)", *batch)
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

	cfg, err := rf.Eval()
	if err != nil {
		return err
	}
	scn := cfg.ResolvedScenario()
	if *batch > 0 {
		cfg.ChipletBatch = *batch
	}
	if *mono > 0 {
		cfg.MonoBatch = *mono
	}
	cfg.Fig10Samples = *samples

	if *perfCheck != "" {
		return runPerfCheck(ctx, scn, *batch, rf.Workers(), rf.Seed(), *perfCheck, *perfTol, out)
	}
	if *perf {
		return runPerf(ctx, scn, *batch, rf.Workers(), rf.Seed(), *perfOut, out)
	}

	spec, err := scn.SpecForQubits(*chiplet)
	if err != nil {
		return err
	}
	grids := []mcm.Grid{{Rows: *rows, Cols: *cols, Spec: spec}}
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
	return cli.Emit(tb, out, *csv)
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
	base.Policy = yield.Policy{}

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

// runPerfCheck measures the hot-path records and compares them with the
// committed baseline at path (see comparePerf). The baseline is read
// first, so a missing or malformed one fails before any measurement.
func runPerfCheck(ctx context.Context, scn scenario.Scenario, batch, workers int, seed int64, path string, tol float64, out io.Writer) error {
	baseline, err := readPerfBaseline(path)
	if err != nil {
		return err
	}
	records, err := measurePerf(ctx, scn, batch, workers, seed)
	if err != nil {
		return err
	}
	return comparePerf(records, baseline, path, tol, out)
}

// readPerfBaseline reads a committed perf record file.
func readPerfBaseline(path string) ([]perfRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perfcheck baseline: %w", err)
	}
	var baseline []perfRecord
	if err := json.Unmarshal(data, &baseline); err != nil {
		return nil, fmt.Errorf("perfcheck baseline %s: %w", path, err)
	}
	return baseline, nil
}

// comparePerf compares each measured ns/op against the baseline read
// from path, failing on any fractional regression beyond tol. Records
// present on only one side are reported but never fail the check, so
// the benchmark set can evolve without lock-step baseline updates.
func comparePerf(records, baseline []perfRecord, path string, tol float64, out io.Writer) error {
	base := map[string]perfRecord{}
	for _, r := range baseline {
		base[r.Name] = r
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
