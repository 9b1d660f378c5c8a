package eval

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"chipletqc/internal/assembly"
	"chipletqc/internal/collision"
	"chipletqc/internal/compiler"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// Fig9Ratios orders the Fig. 9 link-quality sweep: the state-of-art
// e_link/e_chip ~ 4.17 plus the projected improvements 3, 2, 1.
var Fig9Ratios = []string{"state-of-art", "ratio-3", "ratio-2", "ratio-1"}

// Fig9Cell is one heatmap cell: a square MCM's E_avg relative to its
// monolithic counterpart under one link-quality assumption.
type Fig9Cell struct {
	Grid     mcm.Grid
	Qubits   int
	EAvgMCM  float64
	EAvgMono float64
	// Ratio is E_avg,MCM / E_avg,Mono; < 1 means the MCM wins.
	Ratio float64
	// MonoAvailable is false when the monolithic counterpart had zero
	// collision-free yield (no comparison possible; the paper notes
	// these systems explicitly).
	MonoAvailable bool
}

// Fig9 computes the four heatmaps over the square MCM systems.
//
// The comparison follows the paper's Section VII-C2 semantics: the
// chiplet batch is scaled to the same wafer area as the monolithic batch
// (B * qm/qc dies), and "the devices in the collision-free monolithic
// yield" are compared against the same *number* of MCMs drawn best-first
// from the sorted, scaled bin. This equal-count comparison is what lets
// KGD post-selection ("speed binning") offset the higher link error:
// when monolithic yield is tiny, the matching MCM population is an elite
// slice of a much larger supply.
func Fig9(ctx context.Context, cfg Config) (map[string][]Fig9Cell, error) {
	return fig9Ratios(ctx, cfg, Fig9Ratios)
}

// Fig9StateOfArt computes only the state-of-art cells — the subset the
// Fig. 10(b) correlation consumes — at a quarter of the full link sweep's
// resampling cost (the fabricate/assemble/mono pipeline dominates either
// way).
func Fig9StateOfArt(ctx context.Context, cfg Config) ([]Fig9Cell, error) {
	res, err := fig9Ratios(ctx, cfg, Fig9Ratios[:1])
	if err != nil {
		return nil, err
	}
	return res[Fig9Ratios[0]], nil
}

// fig9Ratios runs the Fig. 9 pipeline for a subset of the ratio sweep.
// Each ratio resamples links from its own freshly seeded stream, so a
// subset's cells are bit-identical to the same cells of the full sweep.
func fig9Ratios(ctx context.Context, cfg Config, ratios []string) (map[string][]Fig9Cell, error) {
	cfg.det() // resolve the shared detuning model before fanning out
	grids := mcm.SquareGridsFrom(cfg.catalog(), cfg.MaxQubits)
	links := noise.LinkRatioModels(noise.ChipMeanInfidelity)
	links[Fig9Ratios[0]] = cfg.scn().Link // state of art = the scenario's own links

	// Each grid's fabricate-assemble-compare pipeline is independent and
	// independently seeded, so grids fan out; the worker budget splits
	// between the grid fan-out and the nested fabrication/Monte Carlo so
	// total concurrency stays near cfg.Workers. The link sweep within
	// one grid stays serial because ResampleLinks mutates the selected
	// modules in ratio order.
	outer, inner := runner.Split(cfg.Workers, len(grids))
	icfg := cfg
	icfg.Workers = inner
	var gridsDone atomic.Int64
	perGrid, err := runner.Map(ctx, len(grids), outer, func(gi int) ([]Fig9Cell, error) {
		g := grids[gi]
		cfg := icfg
		// The monolithic population runs first: its seed is independent
		// of the MCM side, and its size K sets how many modules to pull.
		monoEavgs, _, err := cfg.monoPopulation(ctx, g.MonolithicCounterpart(), cfg.MonoBatch, seedOffFig9Mono+int64(gi))
		if err != nil {
			return nil, err
		}
		monoMean := meanOrNaN(monoEavgs)

		// Wafer-area scaling: a qm-qubit monolithic die's area hosts
		// qm/qc chiplets, so B monolithic dies correspond to B*chips
		// chiplet dies for an MCM of `chips` chiplets.
		scaled := cfg.ChipletBatch * g.Chips()
		b, err := assembly.Fabricate(ctx, g.Spec, scaled, cfg.batchConfig(seedOffFig9Fabricate+int64(gi)))
		if err != nil {
			return nil, err
		}
		// Equal-count population: the top-K MCMs (the bin is sorted, so
		// assembly order is best-first) against the K monolithic
		// survivors. With zero monolithic yield (K = 0) every MCM the
		// bin can form stands alone, so the assembly drains.
		asm, err := assembly.NewAssembler(b, g, cfg.assembleConfig(seedOffFig9Assemble+int64(gi)))
		if err != nil {
			return nil, err
		}
		sel, err := asm.Take(ctx, len(monoEavgs))
		if err != nil {
			return nil, err
		}

		cells := make([]Fig9Cell, 0, len(ratios))
		for _, name := range ratios {
			link := links[name]
			r := runner.Rand(cfg.Seed+seedOffFig9Links, gi)
			var eavgs []float64
			for _, m := range sel {
				m.ResampleLinks(r, link)
				eavgs = append(eavgs, m.EAvg())
			}
			cell := Fig9Cell{
				Grid:          g,
				Qubits:        g.Qubits(),
				EAvgMCM:       meanOrNaN(eavgs),
				EAvgMono:      monoMean,
				MonoAvailable: len(monoEavgs) > 0,
			}
			if cell.MonoAvailable && !math.IsNaN(cell.EAvgMCM) {
				cell.Ratio = cell.EAvgMCM / cell.EAvgMono
			} else {
				cell.Ratio = math.NaN()
			}
			cells = append(cells, cell)
		}
		cfg.progress("fig9", int(gridsDone.Add(1)), len(grids))
		return cells, nil
	})
	if err != nil {
		return nil, err
	}

	out := map[string][]Fig9Cell{}
	for _, cells := range perGrid {
		for i, name := range ratios {
			out[name] = append(out[name], cells[i])
		}
	}
	return out, nil
}

// Fig10Point is one benchmark evaluated on one MCM system against its
// monolithic counterpart.
type Fig10Point struct {
	Grid   mcm.Grid
	Qubits int
	Bench  string
	// LogRatio is ln(F_MCM / F_mono) using mean log fidelity products;
	// positive means the MCM wins. +Inf marks systems whose monolithic
	// counterpart had zero yield (the paper's red X markers).
	LogRatio float64
	// TwoQ is the compiled two-qubit gate count on the MCM, used to
	// normalise LogRatio into a per-gate advantage.
	TwoQ     int
	MonoZero bool
	Square   bool
}

// Ratio returns the fidelity ratio F_MCM / F_mono.
func (p Fig10Point) Ratio() float64 { return math.Exp(p.LogRatio) }

// Fig10 evaluates the benchmark suite on the given MCM systems.
// samples bounds the device instances averaged per architecture.
// Systems fan out over cfg.Workers; a compile failure on any system
// cancels the remaining work and the lowest-indexed error is returned,
// so both results and errors are deterministic at any worker count.
func Fig10(ctx context.Context, cfg Config, grids []mcm.Grid, samples int) ([]Fig10Point, error) {
	if samples < 1 {
		samples = 3
	}
	det := cfg.det() // resolved before fanning out
	// The worker budget splits between the system fan-out and the nested
	// fabrication/Monte Carlo inside each system.
	outer, inner := runner.Split(cfg.Workers, len(grids))
	icfg := cfg
	icfg.Workers = inner
	var gridsDone atomic.Int64
	perGrid, err := runner.Map(ctx, len(grids), outer, func(gi int) ([]Fig10Point, error) {
		g := grids[gi]
		pts, err := fig10System(ctx, icfg, g, gi, samples, det)
		if err == nil {
			cfg.progress("fig10", int(gridsDone.Add(1)), len(grids))
		}
		return pts, err
	})
	if err != nil {
		return nil, err
	}
	var out []Fig10Point
	for _, pts := range perGrid {
		out = append(out, pts...)
	}
	return out, nil
}

// fig10System evaluates the benchmark suite on one MCM system against
// its monolithic counterpart.
func fig10System(ctx context.Context, cfg Config, g mcm.Grid, gi, samples int, det *noise.DetuningModel) ([]Fig10Point, error) {
	// MCM side: pull the best `samples` modules from a wafer-area-scaled
	// batch (equal-count selection, matching the Fig. 9 comparison
	// semantics); the rest of the bin is never assembled.
	scaled := cfg.ChipletBatch * g.Chips()
	b, err := assembly.Fabricate(ctx, g.Spec, scaled, cfg.batchConfig(seedOffFig10Fabricate+int64(gi)))
	if err != nil {
		return nil, err
	}
	acfg := cfg.assembleConfig(seedOffFig10Assemble + int64(gi))
	acfg.Link = cfg.linkModel()
	asm, err := assembly.NewAssembler(b, g, acfg)
	if err != nil {
		return nil, err
	}
	mods, err := asm.Take(ctx, samples)
	if err != nil {
		return nil, err
	}
	mcmDev := asm.Device()
	chip := topo.BuildChip(g.Spec)

	// Monolithic side: collision-free instances with error maps.
	monoDev := topo.MonolithicDevice(g.MonolithicCounterpart())
	monoAssignments, err := monoInstances(ctx, cfg, monoDev, samples, seedOffFig10Mono+int64(gi), det)
	if err != nil {
		return nil, err
	}

	// Link-aware routing penalises seam crossings by the scenario's
	// link/chip error ratio when enabled.
	var mcmOpts compiler.Options
	if cfg.LinkAwareRouting {
		mcmOpts.EdgeCost = compiler.LinkAwareCost(mcmDev,
			cfg.linkModel().Mean()/noise.ChipMeanInfidelity)
	}
	// Each device gets one routing table and one edge index for the
	// whole suite, and each instance one ln(1 - e) table. The tables
	// are needed only when a monolithic population exists to compare
	// against.
	mcmComp := compiler.New(mcmDev, mcmOpts)
	var monoComp *compiler.Compiler
	var mcmIdx, monoIdx *edgeIndex
	var mcmTables, monoTables [][]float64
	if len(monoAssignments) > 0 {
		monoComp = compiler.New(monoDev, compiler.Options{})
		mcmIdx = newEdgeIndex(mcmDev.G.Edges())
		for _, m := range mods {
			mcmTables = append(mcmTables, mcmIdx.logTable(m.Errors(mcmDev, chip)))
		}
		monoIdx = newEdgeIndex(monoDev.G.Edges())
		for _, a := range monoAssignments {
			monoTables = append(monoTables, monoIdx.logTable(a))
		}
	}

	// The benchmarks fan out over the workers: each compiles through
	// the read-only Compilers and tables above, and Map returns the
	// points in suite order with the lowest-index error.
	width := qbench.UtilizedQubits(g.Qubits())
	suite := qbench.Suite()
	return runner.Map(ctx, len(suite), cfg.Workers, func(i int) (Fig10Point, error) {
		bs := suite[i]
		circ := bs.Generate(width, cfg.Seed+seedOffFig10Circuits)
		mcmRes, err := mcmComp.Compile(circ)
		if err != nil {
			return Fig10Point{}, fmt.Errorf("fig10 %v %s (mcm): %w", g, bs.Short, err)
		}
		p := Fig10Point{
			Grid:   g,
			Qubits: g.Qubits(),
			Bench:  bs.Short,
			TwoQ:   mcmRes.Counts.TwoQ,
			Square: g.Rows == g.Cols,
		}
		if len(monoAssignments) == 0 {
			p.MonoZero = true
			p.LogRatio = math.Inf(1)
			return p, nil
		}
		monoRes, err := monoComp.Compile(circ)
		if err != nil {
			return Fig10Point{}, fmt.Errorf("fig10 %v %s (mono): %w", g, bs.Short, err)
		}
		if len(mods) == 0 {
			p.LogRatio = math.NaN()
		} else {
			p.LogRatio = meanLog(mcmIdx, mcmRes, mcmTables) - meanLog(monoIdx, monoRes, monoTables)
		}
		return p, nil
	})
}

// meanLog returns the mean log fidelity of one compiled circuit over
// the instances whose ln(1 - e) tables are given.
func meanLog(x *edgeIndex, r *compiler.Result, tables [][]float64) float64 {
	ids := x.gateEdges(r.Compiled)
	logs := make([]float64, len(tables))
	for i, t := range tables {
		logs[i] = sumLogs(ids, t)
	}
	return stats.Mean(logs)
}

// monoInstances fabricates monolithic devices until `want` collision-free
// instances are found (or the batch budget is exhausted) and returns
// their full per-coupling error assignments.
//
// Trials stream in worker-sized blocks on a linear checkpoint grid, each
// on its own (seed, index)-derived RNG stream; selection keeps the first
// `want` collision-free trial indices, so the instances are identical at
// any worker count while the scan still stops early once enough
// survivors are found.
func monoInstances(ctx context.Context, cfg Config, dev *topo.Device, want int, seedOffset int64, det *noise.DetuningModel) ([]noise.Assignment, error) {
	if want <= 0 || cfg.MonoBatch <= 0 {
		return nil, ctx.Err()
	}
	scn := cfg.scn()
	checker := collision.NewChecker(dev, scn.Params)
	link := scn.Link
	campaign := cfg.Seed + seedOffset
	mu := scn.Fab.Targets(dev)
	chunk := runner.Workers(cfg.Workers, cfg.MonoBatch) * 32
	var checkpoints []int
	for cp := chunk; cp < cfg.MonoBatch; cp += chunk {
		checkpoints = append(checkpoints, cp)
	}

	var out []noise.Assignment
	_, err := runner.StreamPlanned(ctx, cfg.MonoBatch, cfg.Workers, checkpoints,
		runner.NewScratch(dev.N), nil,
		func(l runner.Scratch, i int) *noise.Assignment {
			r := l.RNG.At(campaign, i)
			if !checker.SampleFree(r, mu, scn.Fab.Sigma, l.Buf) {
				return nil
			}
			a := noise.Assign(r.Rand(), dev, l.Buf, det, link)
			return &a
		},
		func(_ int, a *noise.Assignment) {
			if a != nil && len(out) < want {
				out = append(out, *a)
			}
		},
		func(int) bool { return len(out) == want })
	if err != nil {
		return nil, err
	}
	return out, nil
}
