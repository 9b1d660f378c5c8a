package eval

import (
	"context"
	"fmt"

	"chipletqc/internal/assembly"
	"chipletqc/internal/circuit"
	"chipletqc/internal/compiler"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// --- Fig. 1: yield / infidelity trade-off vs module size -------------------

// Fig1Row is one module size: its collision-free yield and the mean
// two-qubit infidelity of its collision-free devices.
type Fig1Row struct {
	Qubits int
	Yield  float64
	EAvg   float64
}

// Fig1 quantifies the conceptual trade-off of the paper's Fig. 1 with
// the actual models: as module size grows, yield falls and average
// infidelity rises.
func Fig1(ctx context.Context, cfg Config) ([]Fig1Row, error) {
	catalog := cfg.catalog()
	out := make([]Fig1Row, 0, len(catalog))
	for i, cs := range catalog {
		eavgs, yld, err := cfg.monoPopulation(ctx, cs.Spec, cfg.ChipletBatch, seedOffFig1Population+int64(i))
		if err != nil {
			return nil, err
		}
		out = append(out, Fig1Row{Qubits: cs.Qubits, Yield: yld, EAvg: meanOrNaN(eavgs)})
		cfg.progress("fig1", i+1, len(catalog))
	}
	return out, nil
}

// --- Fig. 2: wafer output, monolithic vs chiplet ---------------------------

// Fig2Result is the illustrative wafer-output comparison: the same wafer
// with the same number of scattered fatal defects, diced monolithically
// versus into chiplets.
type Fig2Result struct {
	MonoDies    int
	Defects     int
	MonoGood    int
	ChipletDies int
	ChipletGood int
}

// Fig2 computes the comparison. Each defect is assumed to kill one die
// (defects beyond the die count are ignored), matching the figure's
// seven-faulty-devices illustration. It is pure arithmetic — the one
// experiment entry point without a context, since there is nothing to
// cancel.
func Fig2(monoDies, chipletsPerMono, defects int) Fig2Result {
	r := Fig2Result{
		MonoDies:    monoDies,
		Defects:     defects,
		ChipletDies: monoDies * chipletsPerMono,
	}
	r.MonoGood = maxInt(0, monoDies-defects)
	r.ChipletGood = maxInt(0, r.ChipletDies-defects)
	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Fig. 3b: CX infidelity vs processor size ------------------------------

// Fig3bSizes are the processor generations the paper samples: Falcon
// (27q Auckland), Hummingbird (65q Brooklyn), Eagle (127q Washington).
var Fig3bSizes = []int{27, 65, 127}

// Fig3b generates box-plot summaries of per-coupling CX infidelity for
// the three processor sizes over 15 calibration cycles.
func Fig3b(ctx context.Context, cfg Config) ([]stats.Summary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return noise.SizeSeries(Fig3bSizes, 15, cfg.Seed+seedOffFig3bCalib, cfg.scn().Detuning.Calib), nil
}

// --- Fig. 4: collision-free yield vs qubits --------------------------------

// Fig4Steps and Fig4Sigmas are the swept parameters of Fig. 4.
var (
	Fig4Steps  = []float64{0.04, 0.05, 0.06, 0.07}
	Fig4Sigmas = []float64{0.1323, 0.014, 0.006}
)

// Fig4 runs the detuning x precision yield sweep over a monolithic size
// ladder up to maxQubits (the paper sweeps to ~10^3 qubits; <= 0
// defaults to 1000). Cancelling ctx aborts the sweep within one
// in-flight trial per worker.
func Fig4(ctx context.Context, cfg Config, maxQubits int) ([]yield.SweepCell, error) {
	if maxQubits <= 0 {
		maxQubits = 1000
	}
	ycfg := cfg.yieldConfig(cfg.MonoBatch, cfg.Seed+seedOffFig4Sweep)
	sizes := yield.SizeLadder(maxQubits)
	return yield.Sweep(ctx, Fig4Steps, Fig4Sigmas, sizes, ycfg)
}

// --- Fig. 6: MCM configurability --------------------------------------------

// Fig6Row is one square MCM dimension: the configuration count (log10 of
// ordered chiplet placements) and the maximum number of disjoint MCMs.
type Fig6Row struct {
	Dim          int // m of an m x m MCM
	Chips        int
	Log10Configs float64
	MaxMCMs      int
}

// Fig6Result bundles the batch context with the per-dimension rows.
type Fig6Result struct {
	Batch        int
	FreeChiplets int
	Yield        float64
	Rows         []Fig6Row
}

// Fig6 reproduces the configurability analysis: a batch of 20-qubit
// chiplets (paper: 10^5 units, ~69.4% yield) feeding square MCMs of
// growing dimension.
func Fig6(ctx context.Context, cfg Config, batch int, maxDim int) (Fig6Result, error) {
	if batch <= 0 {
		batch = 100000
	}
	if maxDim < 2 {
		maxDim = 7
	}
	spec, err := cfg.scn().SpecForQubits(20)
	if err != nil {
		return Fig6Result{}, err
	}
	// Only the bin's size matters here, so no survivor is retained.
	free, err := assembly.Survivors(ctx, topo.BuildChip(spec), batch, 0, cfg.batchConfig(seedOffFig6Batch),
		func(*assembly.Die) struct{} { return struct{}{} })
	if err != nil {
		return Fig6Result{}, err
	}
	nfree := len(free)
	res := Fig6Result{Batch: batch, FreeChiplets: nfree, Yield: float64(nfree) / float64(batch)}
	for m := 2; m <= maxDim; m++ {
		chips := m * m
		res.Rows = append(res.Rows, Fig6Row{
			Dim:          m,
			Chips:        chips,
			Log10Configs: assembly.Log10Configurations(nfree, chips),
			MaxMCMs:      assembly.MaxAssemblies(nfree, chips),
		})
	}
	return res, nil
}

// --- Fig. 7: CX infidelity vs detuning --------------------------------------

// Fig7Result is the synthetic Washington calibration scatter with its
// pooled statistics (paper: median 0.012, average 0.018).
type Fig7Result struct {
	Points []noise.CalibPoint
	Median float64
	Mean   float64
}

// Fig7 generates the calibration dataset behind the on-chip error model.
func Fig7(ctx context.Context, cfg Config) (Fig7Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig7Result{}, err
	}
	det := cfg.scn().Detuning
	pts := noise.CalibrationRun(det.Device, det.FreqSpread, det.Cycles, cfg.Seed+seedOffFig7Calib, det.Calib)
	var ys []float64
	for _, p := range pts {
		ys = append(ys, p.Infidelity)
	}
	return Fig7Result{
		Points: pts,
		Median: stats.Median(ys),
		Mean:   stats.Mean(ys),
	}, nil
}

// --- Table II: compiled benchmark details -----------------------------------

// Table2Row is one compiled benchmark on one 2x2 MCM system.
type Table2Row struct {
	ChipletQubits int
	Dim           string
	SystemQubits  int
	Bench         string
	Counts        circuit.Counts
}

// Table2Chiplets are the chiplet sizes of the paper's Table II.
var Table2Chiplets = []int{10, 20, 40, 60, 90}

// Table2 compiles the seven benchmarks onto 2x2 MCMs of the Table II
// chiplet sizes at 80% utilisation and reports 1q / 2q / 2q-critical.
// The context is checked between systems (compilation is CPU-bound but
// short per system).
func Table2(ctx context.Context, cfg Config) ([]Table2Row, error) {
	var out []Table2Row
	for i, cq := range Table2Chiplets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec, err := cfg.scn().SpecForQubits(cq)
		if err != nil {
			return nil, err
		}
		grid := mcm.Grid{Rows: 2, Cols: 2, Spec: spec}
		dev := mcm.MustBuild(grid)
		comp := compiler.New(dev, compiler.Options{})
		width := qbench.UtilizedQubits(dev.N)
		for _, bs := range qbench.Suite() {
			c := bs.Generate(width, cfg.Seed+seedOffTable2Circuits)
			r, err := comp.Compile(c)
			if err != nil {
				return nil, fmt.Errorf("table II %dq %s: %w", cq, bs.Short, err)
			}
			out = append(out, Table2Row{
				ChipletQubits: cq,
				Dim:           "2x2",
				SystemQubits:  dev.N,
				Bench:         bs.Short,
				Counts:        r.Counts,
			})
		}
		cfg.progress("table2", i+1, len(Table2Chiplets))
	}
	return out, nil
}

// --- Eq. 1 / Section V-C worked example -------------------------------------

// Eq1Result is the paper's fabrication-output worked example.
type Eq1Result struct {
	MonoYield    float64 // Ym
	ChipletYield float64 // Yc
	MonoDevices  float64 // Ym * B
	MCMDevices   float64 // Eq. 1 upper bound
	Gain         float64 // MCMDevices / MonoDevices
}

// Eq1Example reproduces Section V-C: B = 1000 monolithic 100-qubit dies
// versus 2x5 MCMs of 10-qubit chiplets on the same wafer area, using
// simulated yields (paper: Ym ~ 0.11, Yc ~ 0.85, gain ~ 7.7x).
func Eq1Example(ctx context.Context, cfg Config) (Eq1Result, error) {
	const (
		batch = 1000
		qm    = 100
		qc    = 10
		chips = 10 // 2 x 5
	)
	ycfg := cfg.yieldConfig(batch, cfg.Seed+seedOffEq1Yield)
	mono, err := yield.Simulate(ctx, topo.MonolithicDevice(topo.MonolithicSpec(qm)), ycfg)
	if err != nil {
		return Eq1Result{}, err
	}
	spec, err := cfg.scn().SpecForQubits(qc)
	if err != nil {
		return Eq1Result{}, err
	}
	chipRes, err := yield.Simulate(ctx, topo.MonolithicDevice(spec), ycfg)
	if err != nil {
		return Eq1Result{}, err
	}
	res := Eq1Result{
		MonoYield:    mono.Fraction(),
		ChipletYield: chipRes.Fraction(),
	}
	res.MonoDevices = res.MonoYield * batch
	res.MCMDevices = assembly.FabricationOutput(res.ChipletYield, batch, qm, qc, chips)
	if res.MonoDevices > 0 {
		res.Gain = res.MCMDevices / res.MonoDevices
	}
	return res, nil
}
