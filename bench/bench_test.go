package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current reference units")

// TestGolden checks, or with -update rewrites, the reference digests
// every run compares its warm-up against.
func TestGolden(t *testing.T) {
	got := map[string]string{}
	ctx := context.Background()
	for _, def := range workloads {
		w, err := def.setup(ctx, env{seed: goldenSeed, scale: 1, dir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: set up: %v", def.name, err)
		}
		sum, err := w.reference(ctx)
		if cerr := w.close(); cerr != nil {
			t.Errorf("%s: close: %v", def.name, cerr)
		}
		if err != nil {
			t.Fatalf("%s: reference: %v", def.name, err)
		}
		got[def.name] = sum
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "golden.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]string
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reference digests changed:\n got %v\nwant %v\n(rerun with -update only if the change is intended)", got, want)
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark defines.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	var names, wantNames []string
	for _, w := range f.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		wantNames = append(wantNames, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("BENCHMARK.json workloads\n %q\nbenchmark defines\n %q", names, wantNames)
	}
	for _, c := range []struct {
		key  string
		got  []metric
		want []metric
	}{
		{"end_to_end", toMetrics(f.EndToEnd), endToEnd},
		{"per_layer", toMetrics(f.PerLayer), perLayer},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s\n %v\nbenchmark defines\n %v", c.key, c.got, c.want)
		}
	}
}

func toMetrics(in []metricEntry) []metric {
	out := make([]metric, len(in))
	for i, m := range in {
		out[i] = metric{m.Name, m.Unit, m.Better}
	}
	return out
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks that each run passes its checks and prints exactly the
// metrics BENCHMARK.json names for its mode, each as a "name value
// unit" line and in the final record.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				spans := filepath.Join(t.TempDir(), "spans.json")
				args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "0", "-scale", "0.05",
					"-trace", trace, "-spans", spans}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				want := map[string]string{}
				list := f.EndToEnd
				if trace == "1" {
					list = f.PerLayer
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
				for _, m := range list {
					want[m.Name] = m.Unit
				}
				checkOutput(t, stdout.String(), want, stderr.String())
			})
		}
	}
}

// checkOutput checks the metric lines and the final record of one run
// against the metric names and units it must print, and nothing else.
func checkOutput(t *testing.T, out string, want map[string]string, stderr string) {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		t.Fatal("no output")
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the record: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("record correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr)
	}
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		fields := strings.Fields(l)
		if len(fields) < 3 {
			t.Errorf("malformed metric line %q", l)
			continue
		}
		printed[fields[0]] = fields[2]
	}
	recorded := map[string]string{}
	for name, v := range res.Metrics {
		recorded[name] = v.Unit
	}
	if !reflect.DeepEqual(printed, want) {
		t.Errorf("printed metrics %v, want %v", printed, want)
	}
	if !reflect.DeepEqual(recorded, want) {
		t.Errorf("recorded metrics %v, want %v", recorded, want)
	}
}
