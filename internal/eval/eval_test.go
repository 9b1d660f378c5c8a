package eval

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"chipletqc/internal/compiler"
	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/sampling"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
)

func TestLogFidelityAndFidelity(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	c := qbench.GHZ(5)
	r, err := compiler.Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform 1% error: fidelity = 0.99^twoQ.
	errs := noise.Assignment{Err: makeUniform(dev, 0.01)}
	want := math.Pow(0.99, float64(r.Counts.TwoQ))
	if got := Fidelity(r, errs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Fidelity = %v, want %v", got, want)
	}
	if got := LogFidelity(r, errs); math.Abs(got-math.Log(want)) > 1e-12 {
		t.Errorf("LogFidelity = %v, want %v", got, math.Log(want))
	}
}

func makeUniform(dev *topo.Device, e float64) map[graph.Edge]float64 {
	out := map[graph.Edge]float64{}
	for _, ed := range dev.G.Edges() {
		out[ed] = e
	}
	return out
}

func TestLogFidelityTotalLoss(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	r, err := compiler.Compile(qbench.GHZ(4), dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := LogFidelity(r, noise.Assignment{Err: makeUniform(dev, 1.0)}); !math.IsInf(got, -1) {
		t.Errorf("total loss log fidelity = %v, want -Inf", got)
	}
}

func TestFig1TradeoffShape(t *testing.T) {
	cfg := QuickConfig(1)
	rows := runFig1(t, cfg)
	if len(rows) != len(topo.Catalog) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Yield falls from smallest to largest module.
	if !(rows[0].Yield > rows[len(rows)-1].Yield) {
		t.Errorf("yield should decline: %v vs %v", rows[0].Yield, rows[len(rows)-1].Yield)
	}
	if rows[0].Qubits != 10 || rows[len(rows)-1].Qubits != 250 {
		t.Errorf("unexpected size ladder: %v..%v", rows[0].Qubits, rows[len(rows)-1].Qubits)
	}
}

func TestFig2WaferOutput(t *testing.T) {
	r := Fig2(9, 4, 7)
	if r.MonoGood != 2 {
		t.Errorf("mono good = %d, want 2", r.MonoGood)
	}
	if r.ChipletDies != 36 || r.ChipletGood != 29 {
		t.Errorf("chiplet output = %d/%d, want 29/36", r.ChipletGood, r.ChipletDies)
	}
	// Defects exceeding dies clamp at zero.
	if Fig2(3, 2, 10).MonoGood != 0 {
		t.Error("mono good should clamp at 0")
	}
}

func TestFig3bOrdering(t *testing.T) {
	sums := runFig3b(t, QuickConfig(2))
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if !(sums[0].Median < sums[2].Median) {
		t.Errorf("Fig3b medians should grow with size: %v vs %v",
			sums[0].Median, sums[2].Median)
	}
}

func TestFig4SweepStructure(t *testing.T) {
	cfg := QuickConfig(3)
	cfg.MonoBatch = 100
	cells := runFig4(t, cfg, 120)
	if len(cells) != len(Fig4Steps)*len(Fig4Sigmas) {
		t.Fatalf("cells = %d, want %d", len(cells), len(Fig4Steps)*len(Fig4Sigmas))
	}
	// Locate (0.06, 0.006): yields should be ~1 at every size.
	for _, c := range cells {
		if c.Step == 0.06 && c.Sigma == 0.006 {
			for _, p := range c.Points {
				if p.Yield < 0.8 {
					t.Errorf("high-precision yield at %dq = %v", p.Qubits, p.Yield)
				}
			}
		}
		if c.Step == 0.06 && c.Sigma == 0.1323 {
			last := c.Points[len(c.Points)-1]
			if last.Yield > 0.05 {
				t.Errorf("raw-precision yield at %dq = %v, want ~0", last.Qubits, last.Yield)
			}
		}
	}
}

func TestFig6Configurability(t *testing.T) {
	cfg := QuickConfig(4)
	res := runFig6(t, cfg, 2000, 5)
	if res.FreeChiplets == 0 {
		t.Fatal("no free chiplets")
	}
	if res.Yield < 0.45 || res.Yield > 0.85 {
		t.Errorf("20q yield = %v", res.Yield)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (m=2..5)", len(res.Rows))
	}
	// Configurations grow with dimension; assemblies shrink.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Log10Configs <= res.Rows[i-1].Log10Configs {
			t.Error("configuration count should grow with dimension")
		}
		if res.Rows[i].MaxMCMs > res.Rows[i-1].MaxMCMs {
			t.Error("assembly count should shrink with dimension")
		}
	}
}

func TestFig7Statistics(t *testing.T) {
	res := runFig7(t, QuickConfig(5))
	if len(res.Points) == 0 {
		t.Fatal("no calibration points")
	}
	if res.Median < 0.008 || res.Median > 0.016 {
		t.Errorf("median = %v, want ~0.012", res.Median)
	}
	if res.Mean < 0.013 || res.Mean > 0.024 {
		t.Errorf("mean = %v, want ~0.018", res.Mean)
	}
}

func TestTable2AllBenchmarksCompile(t *testing.T) {
	rows, err := runTable2(t, QuickConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table2Chiplets)*7 {
		t.Fatalf("rows = %d, want %d", len(rows), len(Table2Chiplets)*7)
	}
	for _, r := range rows {
		if r.Counts.TwoQ <= 0 {
			t.Errorf("%dq %s: no 2q gates", r.ChipletQubits, r.Bench)
		}
		if r.Counts.TwoQCritical > r.Counts.TwoQ {
			t.Errorf("%dq %s: critical path %d exceeds count %d",
				r.ChipletQubits, r.Bench, r.Counts.TwoQCritical, r.Counts.TwoQ)
		}
		if r.SystemQubits != 4*r.ChipletQubits {
			t.Errorf("2x2 of %dq should be %dq, got %d",
				r.ChipletQubits, 4*r.ChipletQubits, r.SystemQubits)
		}
	}
}

func TestEq1ExampleMatchesPaper(t *testing.T) {
	res := runEq1(t, DefaultConfig(7))
	// Paper: Ym ~ 0.11, Yc ~ 0.85, N = 850, gain ~ 7.7x.
	if res.MonoYield < 0.06 || res.MonoYield > 0.18 {
		t.Errorf("Ym = %v, want ~0.11", res.MonoYield)
	}
	if res.ChipletYield < 0.78 || res.ChipletYield > 0.92 {
		t.Errorf("Yc = %v, want ~0.85", res.ChipletYield)
	}
	if res.Gain < 4 || res.Gain > 14 {
		t.Errorf("gain = %v, want ~7.7x", res.Gain)
	}
}

func TestFig8SmallScale(t *testing.T) {
	cfg := QuickConfig(8)
	cfg.MaxQubits = 200
	cfg.MonoBatch = 400
	cfg.ChipletBatch = 400
	res := runFig8(t, cfg)
	if len(res.Points) == 0 {
		t.Fatal("no Fig8 points")
	}
	if len(res.ChipletYields) != len(topo.Catalog) {
		t.Errorf("chiplet yields = %d", len(res.ChipletYields))
	}
	// Chiplet yield ordering: 10q beats 250q.
	if res.ChipletYields[10] <= res.ChipletYields[250] {
		t.Error("10q chiplet yield should beat 250q")
	}
	for _, p := range res.Points {
		if p.MCMYield < 0 || p.MCMYield > p.ChipletYield+1e-9 {
			t.Errorf("%v: MCM yield %v outside [0, chiplet yield %v]",
				p.Grid, p.MCMYield, p.ChipletYield)
		}
		if p.MCMYield100x > p.MCMYield+1e-12 {
			t.Errorf("%v: 100x yield %v exceeds nominal %v", p.Grid, p.MCMYield100x, p.MCMYield)
		}
	}
	// MCM yields should beat monolithic for larger systems: check that at
	// least one improvement ratio exceeds 2.
	maxImp := 0.0
	for _, imp := range res.Improvements {
		if imp > maxImp {
			maxImp = imp
		}
	}
	if maxImp < 2 {
		t.Errorf("max yield improvement = %v, expected > 2x", maxImp)
	}
}

// TestFig8ReturnsSimulateErrors: a monolithic yield simulation that
// fails must fail Fig. 8, not leave zero-yield points behind.
func TestFig8ReturnsSimulateErrors(t *testing.T) {
	cfg := QuickConfigFor(scenario.Paper(), 1)
	cfg.MaxQubits = 60
	cfg.Sampling = sampling.Spec{Method: "bogus"}
	res, err := Fig8(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("Fig8 err = %v (%d points), want the sampling error", err, len(res.Points))
	}
}

func TestFig9SmallScale(t *testing.T) {
	cfg := QuickConfig(9)
	cfg.MaxQubits = 180
	cfg.MonoBatch = 600
	cfg.ChipletBatch = 600
	res := runFig9(t, cfg)
	if len(res) != 4 {
		t.Fatalf("ratio maps = %d", len(res))
	}
	cells := res["state-of-art"]
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	// Equal-link-quality ratios must not exceed state-of-art ratios.
	soa := map[string]float64{}
	for _, c := range cells {
		soa[c.Grid.String()] = c.Ratio
	}
	for _, c := range res["ratio-1"] {
		base, ok := soa[c.Grid.String()]
		if !ok || math.IsNaN(base) || math.IsNaN(c.Ratio) {
			continue
		}
		if c.Ratio > base+1e-9 {
			t.Errorf("%v: ratio-1 %v worse than state-of-art %v", c.Grid, c.Ratio, base)
		}
	}
	// Paper: at e_link = e_chip, every MCM beats its monolithic
	// counterpart (ratio < 1).
	for _, c := range res["ratio-1"] {
		if !c.MonoAvailable || math.IsNaN(c.Ratio) {
			continue
		}
		if c.Ratio >= 1.05 {
			t.Errorf("%v: ratio-1 = %v, want < 1", c.Grid, c.Ratio)
		}
	}
}

func TestFig10SmallScale(t *testing.T) {
	cfg := QuickConfig(10)
	cfg.MonoBatch = 500
	cfg.ChipletBatch = 300
	grids := []mcm.Grid{
		{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}, // 80q of 20q chiplets
		{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 4, Width: 8}}, // 160q of 40q chiplets
	}
	pts, err := runFig10(t, cfg, grids, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(grids)*7 {
		t.Fatalf("points = %d, want %d", len(pts), len(grids)*7)
	}
	for _, p := range pts {
		if p.MonoZero {
			if !math.IsInf(p.LogRatio, 1) {
				t.Errorf("%v %s: mono-zero should be +Inf", p.Grid, p.Bench)
			}
			continue
		}
		if math.IsNaN(p.LogRatio) {
			t.Errorf("%v %s: NaN ratio", p.Grid, p.Bench)
		}
		if !p.Square {
			t.Errorf("%v should be square", p.Grid)
		}
	}
}

func TestMonoInstancesZeroYield(t *testing.T) {
	// The 500q monolithic counterpart of a 5x5 grid of 20q chiplets
	// yields nothing at laser-tuned precision, so the Fig. 10 mono side
	// finds no instances and every point is mono-zero.
	spec, err := topo.SpecForQubits(20)
	if err != nil {
		t.Fatal(err)
	}
	g := mcm.Grid{Rows: 5, Cols: 5, Spec: spec}
	if q := g.MonolithicCounterpart().Qubits(); q != 500 {
		t.Fatalf("counterpart has %d qubits, want 500", q)
	}
	cfg := QuickConfig(11)
	cfg.MonoBatch = 50
	cfg.ChipletBatch = 20
	pts, err := fig10System(context.Background(), cfg, g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for _, p := range pts {
		if !p.MonoZero || !math.IsInf(p.LogRatio, 1) {
			t.Errorf("%s: MonoZero = %v, LogRatio = %v; want true, +Inf", p.Bench, p.MonoZero, p.LogRatio)
		}
	}
}

func TestConfigDetLazy(t *testing.T) {
	cfg := QuickConfig(12)
	if cfg.Det != nil {
		t.Fatal("Det should start nil")
	}
	d1 := cfg.det()
	d2 := cfg.det()
	if d1 != d2 {
		t.Error("det() should cache the model")
	}
}

func TestMeanOrNaN(t *testing.T) {
	if !math.IsNaN(meanOrNaN(nil)) {
		t.Error("empty mean should be NaN")
	}
	if meanOrNaN([]float64{2, 4}) != 3 {
		t.Error("mean broken")
	}
	_ = rand.Int // silence potential unused import in future edits
	_ = fab.SigmaLaserTuned
}

func TestFig10CorrelationOnRealPipeline(t *testing.T) {
	// Run the real pipeline at small scale and check the correlation
	// machinery produces a finite, fully-paired result. The sign of the
	// state-of-art correlation is reported (not asserted): in this
	// reproduction seam-routing share rivals E_avg as the driver of
	// application outcomes (see EXPERIMENTS.md).
	cfg := QuickConfig(31)
	cfg.MaxQubits = 400
	cfg.MonoBatch = 800
	cfg.ChipletBatch = 300
	cells := runFig9(t, cfg)["state-of-art"]
	grids := mcm.SquareGrids(cfg.MaxQubits)
	pts, err := runFig10(t, cfg, grids, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := Fig10Correlation(cells, pts)
	if len(res.Systems) < 4 {
		t.Fatalf("too few comparable systems: %d", len(res.Systems))
	}
	if len(res.EAvgRatio) != len(res.LogRatio) || len(res.EAvgRatio) != len(res.Systems) {
		t.Fatal("correlation samples not paired")
	}
	if math.IsNaN(res.Spearman) || res.Spearman < -1 || res.Spearman > 1 {
		t.Errorf("Spearman out of range: %v", res.Spearman)
	}
	t.Logf("state-of-art Spearman(EAvg ratio, per-gate app advantage) = %.3f", res.Spearman)
}

func TestFig10CorrelationSyntheticPerfect(t *testing.T) {
	// Hand-constructed data where lower E_avg ratio strictly implies a
	// better per-gate application ratio: Spearman must be exactly -1.
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	var cells []Fig9Cell
	var pts []Fig10Point
	for i, dim := range []int{2, 3, 4} {
		g := mcm.Grid{Rows: dim, Cols: dim, Spec: spec}
		cells = append(cells, Fig9Cell{
			Grid:          g,
			Qubits:        g.Qubits(),
			Ratio:         1.2 - 0.1*float64(i), // falling ratio
			MonoAvailable: true,
		})
		pts = append(pts, Fig10Point{
			Grid:     g,
			Qubits:   g.Qubits(),
			Bench:    "g",
			LogRatio: float64(i-1) * 100, // rising advantage
			TwoQ:     1000,
			Square:   true,
		})
	}
	res := Fig10Correlation(cells, pts)
	if len(res.Systems) != 3 {
		t.Fatalf("systems = %d, want 3", len(res.Systems))
	}
	if math.Abs(res.Spearman+1) > 1e-12 {
		t.Errorf("Spearman = %v, want -1", res.Spearman)
	}
}

func TestFig10CorrelationDegenerate(t *testing.T) {
	res := Fig10Correlation(nil, nil)
	if len(res.Systems) != 0 || res.Spearman != 0 {
		t.Errorf("empty correlation = %+v", res)
	}
}
