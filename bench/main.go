// Command bench is the repository's benchmark: it runs one named
// workload in this process for a fixed time, checks the outputs, and
// prints each metric as "name value unit" followed by one JSON record
// on the last line of standard output.
//
//	bash bench/run.sh --workload rare-event --seed 7 --seconds 20 --trace 0
//
// With --trace 1 the run alternates untraced and traced rounds on the
// same inputs, replays the workload's inputs through every layer's
// public functions, writes the spans to a file and reports the
// per-layer metrics instead. With --runs N it runs N processes of
// itself on seeds seed..seed+N-1 and prints each metric's median and
// quartiles. See README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 7

// runLimit stops a run that has not finished this long after its timed
// phase was due to end.
const runLimit = 150 * time.Second

//go:embed testdata/golden.json
var goldenJSON []byte

type options struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	spans    string
	runs     int
}

// metrics are the metrics a run in this mode prints.
func (o options) metrics() []metric {
	if o.trace {
		return perLayer
	}
	return endToEnd
}

// result is the record a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: yield-sweep, rare-event, app-fidelity or campaign-service")
	fs.Int64Var(&o.seed, "seed", goldenSeed, "seed the workload's inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds (at least one round runs)")
	fs.Float64Var(&o.scale, "scale", 1, "multiplier on the work per op (tests use small values)")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run instead of the end-to-end ones")
	fs.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.json)")
	fs.IntVar(&o.runs, "runs", 0, "run this many processes on consecutive seeds and print each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	o.trace = trace != 0
	if fs.NArg() > 0 || o.scale <= 0 || o.seconds < 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	def, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}
	if o.runs > 0 {
		return runMany(o, stdout, stderr)
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintln(stderr, "bench: testdata/golden.json:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+runLimit)
	defer cancel()
	res, err := measure(ctx, def, o, golden[def.name], stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return printResult(res, o, stdout, stderr)
}

// measured is what one run produced before printing.
type measured struct {
	attempted, failed int
	values            map[string]float64
	notes             map[string]string
}

// measure sets the workload up setupRepeats times, each time running
// its reference unit as the warm-up, then runs rounds until the timed
// phase is over (at least one, and at least two when tracing so both
// kinds of round occur).
func measure(ctx context.Context, def workloadDef, o options, golden string, stderr io.Writer) (out measured, err error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return out, err
	}
	dir, err := os.MkdirTemp(".bench_build", "tmp-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	e := env{seed: o.seed, scale: o.scale, dir: dir}
	out = measured{values: map[string]float64{}, notes: map[string]string{}}
	fail := func(format string, args ...any) {
		out.failed++
		if out.failed <= 5 {
			fmt.Fprintf(stderr, "bench: FAIL "+format+"\n", args...)
		}
	}

	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		inst, err := def.setup(ctx, e)
		if err != nil {
			return out, fmt.Errorf("set up %s: %w", def.name, err)
		}
		sum, err := inst.reference(ctx)
		setups = append(setups, time.Since(t).Seconds())
		out.attempted++
		switch {
		case err != nil:
			fail("reference: %v", err)
		case sum != golden:
			fail("reference digest %s, testdata/golden.json has %q", sum, golden)
		}
		if i < setupRepeats-1 {
			if err := inst.close(); err != nil {
				return out, fmt.Errorf("tear down %s: %w", def.name, err)
			}
		} else {
			w = inst
		}
	}
	defer func() {
		if cerr := w.close(); cerr != nil {
			fail("tear down %s: %v", def.name, cerr)
		}
	}()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	minRounds := 1
	if o.trace {
		minRounds = 2
	}
	var lat []float64               // untraced op latencies, ms
	var plainSum, tracedSum float64 // op time of untraced and traced rounds, ms
	var work float64
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	// A traced run pairs its rounds: round 2i runs untraced and round
	// 2i+1 traced on the same inputs, and the run stops only after a
	// whole pair, so trace.overhead_ratio compares like with like.
	for r := 0; r < minRounds || time.Now().Before(deadline) || (o.trace && r%2 == 1); r++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("round %d: %w", r, err)
		}
		in := r
		var rt *tracer
		if o.trace {
			in = r / 2
			if r%2 == 1 {
				rt = tr
			}
		}
		parent, end := rt.begin(0, "bench", fmt.Sprintf("round %d", r))
		ops := w.round(ctx, in, rt, parent)
		end()
		for _, op := range ops {
			out.attempted++
			if op.err != nil {
				fail("round %d: %v", r, op.err)
				continue
			}
			work += op.work
			if rt != nil {
				tracedSum += ms(op.dur)
			} else {
				plainSum += ms(op.dur)
				lat = append(lat, ms(op.dur))
			}
		}
	}
	wall := time.Since(start).Seconds()

	if !o.trace {
		sort.Float64s(lat)
		beyond := func(q float64) string {
			return fmt.Sprintf("n=%d beyond=%d", len(lat), len(lat)-int(math.Ceil(q*float64(len(lat)))))
		}
		out.values["setup_s"] = median(setups)
		out.values["throughput_per_s"] = work / wall
		out.values["latency_p50_ms"] = quantile(lat, 0.5)
		out.values["latency_p90_ms"] = quantile(lat, 0.9)
		out.notes["setup_s"] = fmt.Sprintf("n=%d", len(setups))
		out.notes["latency_p50_ms"] = beyond(0.5)
		out.notes["latency_p90_ms"] = beyond(0.9)
		return out, nil
	}

	layers, err := measureLayers(ctx, w.inputs(), e, tr)
	if err != nil {
		return out, fmt.Errorf("layer probes: %w", err)
	}
	out.values = layers
	out.values["trace.overhead_ratio"] = tracedSum/plainSum - 1
	out.values["process.peak_rss_mb"] = peakRSSMB()
	tr.writeSummary(stderr)
	if err := tr.writeFile(o.spans, newHostStamp(o), out.values); err != nil {
		return out, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stderr, "# spans written to %s\n", o.spans)
	return out, nil
}

// printResult prints the host stamp, one line per metric, and the JSON
// record last. A metric the run could not measure fails the run.
func printResult(m measured, o options, stdout, stderr io.Writer) int {
	host, err := json.Marshal(newHostStamp(o))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# host %s\n", host)
	list := o.metrics()
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]resultValue{}}
	for _, mt := range list {
		v, ok := m.values[mt.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "bench: FAIL metric %s not measured (%v)\n", mt.name, v)
			res.Failed++
			v = 0
		}
		fmt.Fprintln(stdout, metricLine(mt, v, m.notes[mt.name]))
		res.Metrics[mt.name] = resultValue{Value: v, Unit: mt.unit}
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// runMany runs the benchmark once per seed in child processes, one at
// a time, and prints each metric's median, quartiles and quartile
// spread as a share of the median, the numbers BENCHMARK.json bounds
// are set from.
func runMany(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	attempted, failed, correct := 0, 0, true
	for i := 0; i < o.runs; i++ {
		seed := o.seed + int64(i)
		res, err := runChild(self, []string{"-workload", o.workload, "-seed", fmt.Sprint(seed),
			"-seconds", formatValue(o.seconds), "-scale", formatValue(o.scale), "-trace", trace}, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		attempted += res.Attempted
		failed += res.Failed
		correct = correct && res.Correct
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
		}
	}
	list := o.metrics()
	fmt.Fprintf(stdout, "# %s: %d runs, seeds %d..%d, attempted %d, failed %d, correct %t\n",
		o.workload, o.runs, o.seed, o.seed+int64(o.runs)-1, attempted, failed, correct)
	fmt.Fprintf(stdout, "%-30s %-6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, mt := range list {
		vs := values[mt.name]
		if len(vs) < 2 {
			continue
		}
		q1, q3 := quartiles(vs)
		med := median(vs)
		fmt.Fprintf(stdout, "%-30s %-6s %14.6g %14.6g %14.6g %8.4f\n", mt.name, mt.unit, med, q1, q3, (q3-q1)/med)
	}
	if !correct {
		return 1
	}
	return 0
}

// runChild runs one child process to completion and decodes the record
// on the last line of its output.
func runChild(self string, args []string, stderr io.Writer) (result, error) {
	var out strings.Builder
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("decode record: %w", err)
	}
	return res, nil
}
