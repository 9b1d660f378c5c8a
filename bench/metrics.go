package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric names one reported number. The tables below are the single
// source of the names the benchmark prints; BENCHMARK.json at the
// repository root lists the same names (bench_test.go keeps the two in
// step) and adds the regression bounds of the end-to-end ones.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload with -trace 0. A workload's "op" is its unit of user-visible
// work and its "work" the quantity throughput counts (see README.md).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
}

// perLayer are the single-layer metrics, printed by every workload
// with -trace 1. They come from replaying the workload's own inputs
// through each layer's public functions (layers.go).
var perLayer = []metric{
	{"runner.trial_overhead_ns", "ns", "lower"},
	{"fab.sample_ns", "ns", "lower"},
	{"collision.free_ns", "ns", "lower"},
	{"collision.free_ratio", "ratio", "higher"},
	{"yield.simulate_ms", "ms", "lower"},
	{"yield.trials_per_s", "1/s", "higher"},
	{"yield.trials_per_simulate", "count", "lower"},
	{"sampling.new_ms", "ms", "lower"},
	{"sampling.importance_ns", "ns", "lower"},
	{"sampling.dead_end_ratio", "ratio", "lower"},
	{"sampling.ess_ratio", "ratio", "higher"},
	{"assembly.fabricate_ms", "ms", "lower"},
	{"assembly.assemble_ms", "ms", "lower"},
	{"assembly.kgd_ratio", "ratio", "higher"},
	{"compiler.compile_ms", "ms", "lower"},
	{"compiler.allocs_per_compile", "count", "lower"},
	{"compiler.swaps_per_2q", "ratio", "lower"},
	{"graph.shortest_path_ns", "ns", "lower"},
	{"experiment.fingerprint_us", "us", "lower"},
	{"campaign.expand_us", "us", "lower"},
	{"campaign.run_ms", "ms", "lower"},
	{"campaign.cache_hit_ratio", "ratio", "higher"},
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.has_us", "us", "lower"},
	{"store.bytes_per_put", "B", "lower"},
	{"daemon.queue_wait_ms", "ms", "lower"},
	{"daemon.submit_ms", "ms", "lower"},
	{"daemon.http_overhead_ms", "ms", "lower"},
	{"daemon.job_cold_ms", "ms", "lower"},
	{"daemon.job_warm_ms", "ms", "lower"},
	{"daemon.fetch_ms", "ms", "lower"},
	{"daemon.retained_kib_per_job", "KiB", "lower"},
	{"process.peak_rss_mb", "MB", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between order statistics; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median sorts a copy of xs and returns its 0.5 quantile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), the spread rule BENCHMARK.json bounds are set
// against. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// hostStamp identifies the machine a record was measured on. Records
// whose stamps differ must not be compared.
type hostStamp struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func newHostStamp(o options) hostStamp {
	return hostStamp{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Workload:   o.workload,
		Seed:       o.seed,
		Scale:      o.scale,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size, VmHWM in
// /proc/self/status, in MB; NaN where it cannot be read.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kib * 1024 / 1e6
		}
	}
	return math.NaN()
}

// formatValue renders a measured value with all its significant
// digits, as the result record carries it.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// metricLine is the human-readable "name value unit" form.
func metricLine(m metric, v float64, note string) string {
	line := fmt.Sprintf("%s %s %s", m.name, formatValue(v), m.unit)
	if note != "" {
		line += " " + note
	}
	return line
}
