package eval

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"chipletqc/internal/mcm"
	"chipletqc/internal/topo"
)

// tinyConfig is a reduced-scale experiment configuration for the
// worker-count invariance tests: big enough to exercise every pipeline
// stage, small enough to run in well under a second.
func tinyConfig(seed int64, workers int) Config {
	cfg := QuickConfig(seed)
	cfg.MonoBatch = 200
	cfg.ChipletBatch = 200
	cfg.MaxQubits = 100
	cfg.Workers = workers
	return cfg
}

// TestFig8WorkerCountInvariance is the determinism regression test for
// the parallel Fig. 8 pipeline: workers=1 and workers=8 must produce
// identical results for the same seed.
func TestFig8WorkerCountInvariance(t *testing.T) {
	serial := runFig8(t, tinyConfig(11, 1))
	parallel := runFig8(t, tinyConfig(11, 8))
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig8 diverged across worker counts:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestFig9WorkerCountInvariance covers the grid-level fan-out plus the
// parallel die trial (assembly.Survivors) of the monolithic population
// underneath it. NaN-valued cells (zero monolithic yield) compare by
// position rather than value.
func TestFig9WorkerCountInvariance(t *testing.T) {
	serial := runFig9(t, tinyConfig(12, 1))
	parallel := runFig9(t, tinyConfig(12, 8))
	if len(serial) != len(parallel) {
		t.Fatalf("ratio sets differ: %d vs %d", len(serial), len(parallel))
	}
	for _, name := range Fig9Ratios {
		a, b := serial[name], parallel[name]
		if len(a) != len(b) {
			t.Fatalf("%s: cell counts differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			same := a[i].Grid == b[i].Grid &&
				a[i].MonoAvailable == b[i].MonoAvailable &&
				floatsEqualOrBothNaN(a[i].EAvgMCM, b[i].EAvgMCM) &&
				floatsEqualOrBothNaN(a[i].EAvgMono, b[i].EAvgMono) &&
				floatsEqualOrBothNaN(a[i].Ratio, b[i].Ratio)
			if !same {
				t.Errorf("%s cell %d diverged: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

// TestFig10WorkerCountInvariance covers the Map fan-outs and the
// checkpointed die trial (assembly.Survivors) of the monolithic side.
// The one-grid case hands fig10System the whole worker budget, so its
// benchmark fan-out runs in parallel.
func TestFig10WorkerCountInvariance(t *testing.T) {
	spec, err := topo.SpecForQubits(10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		grids   []mcm.Grid
		workers int
	}{
		{"all-grids", mcm.EnumerateGrids(80), 8},
		{"one-grid", []mcm.Grid{{Rows: 2, Cols: 2, Spec: spec}}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := runFig10(t, tinyConfig(13, 1), tc.grids, 2)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := runFig10(t, tinyConfig(13, tc.workers), tc.grids, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(parallel) {
				t.Fatalf("point counts differ: %d vs %d", len(serial), len(parallel))
			}
			compared := false
			for i := range serial {
				a, b := serial[i], parallel[i]
				same := a.Grid == b.Grid && a.Bench == b.Bench && a.TwoQ == b.TwoQ &&
					a.MonoZero == b.MonoZero && floatsEqualOrBothNaN(a.LogRatio, b.LogRatio)
				if !same {
					t.Errorf("point %d diverged: %+v vs %+v", i, a, b)
				}
				compared = compared || !math.IsInf(a.LogRatio, 0) && !math.IsNaN(a.LogRatio)
			}
			if !compared {
				t.Error("no point compared an MCM against a monolithic population")
			}
		})
	}
}

func floatsEqualOrBothNaN(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// BenchmarkFig8 measures the full Fig. 8 pipeline (fabrication,
// monolithic Monte Carlo, assembly) with Workers tracking GOMAXPROCS;
// run with -cpu 1,4 to compare the serial and parallel runner paths.
func BenchmarkFig8(b *testing.B) {
	cfg := QuickConfig(42)
	cfg.MonoBatch = 1000
	cfg.ChipletBatch = 1000
	cfg.MaxQubits = 200
	cfg.Workers = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	var res Fig8Result
	for i := 0; i < b.N; i++ {
		res = runFig8(b, cfg)
	}
	b.ReportMetric(res.ChipletYields[20], "chipyield@20q")
}
