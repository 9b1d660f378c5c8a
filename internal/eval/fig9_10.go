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
	perGrid, err := runner.Map(ctx, len(grids), outer, func(gi int) []Fig9Cell {
		g := grids[gi]
		cfg := icfg
		// Wafer-area scaling: a qm-qubit monolithic die's area hosts
		// qm/qc chiplets, so B monolithic dies correspond to B*chips
		// chiplet dies for an MCM of `chips` chiplets.
		scaled := cfg.ChipletBatch * g.Chips()
		b, err := assembly.Fabricate(ctx, g.Spec, scaled, cfg.batchConfig(seedOffFig9Fabricate+int64(gi)))
		if err != nil {
			return nil // cancellation: surfaced by the outer Map
		}
		acfg := cfg.assembleConfig(seedOffFig9Assemble + int64(gi))
		mods, _, err := assembly.Assemble(ctx, b, g, acfg)
		if err != nil {
			return nil
		}

		monoEavgs, _, err := cfg.monoPopulation(ctx, g.MonolithicCounterpart(), cfg.MonoBatch, seedOffFig9Mono+int64(gi))
		if err != nil {
			return nil
		}
		monoMean := meanOrNaN(monoEavgs)

		// Equal-count population: the top-K MCMs (the bin is sorted, so
		// assembly order is best-first) against the K monolithic
		// survivors. With zero monolithic yield every MCM stands alone.
		sel := mods
		if k := len(monoEavgs); k > 0 && k < len(sel) {
			sel = sel[:k]
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
		return cells
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
	perGrid, err := runner.MapErr(ctx, len(grids), outer, func(gi int) ([]Fig10Point, error) {
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
	var out []Fig10Point
	// MCM side: assemble instances from a wafer-area-scaled batch
	// and keep the best `samples` (equal-count selection, matching
	// the Fig. 9 comparison semantics).
	scaled := cfg.ChipletBatch * g.Chips()
	b, err := assembly.Fabricate(ctx, g.Spec, scaled, cfg.batchConfig(seedOffFig10Fabricate+int64(gi)))
	if err != nil {
		return nil, err
	}
	acfg := cfg.assembleConfig(seedOffFig10Assemble + int64(gi))
	acfg.Link = cfg.linkModel()
	mods, _, err := assembly.Assemble(ctx, b, g, acfg)
	if err != nil {
		return nil, err
	}
	if len(mods) > samples {
		mods = mods[:samples]
	}
	mcmDev := mcm.MustBuild(g)
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

	width := qbench.UtilizedQubits(g.Qubits())
	for _, bs := range qbench.Suite() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		circ := bs.Generate(width, cfg.Seed+seedOffFig10Circuits)
		mcmRes, err := compiler.CompileWithOptions(circ, mcmDev, mcmOpts)
		if err != nil {
			return nil, fmt.Errorf("fig10 %v %s (mcm): %w", g, bs.Short, err)
		}
		var mcmLogs []float64
		for _, m := range mods {
			mcmLogs = append(mcmLogs, LogFidelity(mcmRes, m.Errors(mcmDev, chip)))
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
		} else {
			monoRes, err := compiler.Compile(circ, monoDev)
			if err != nil {
				return nil, fmt.Errorf("fig10 %v %s (mono): %w", g, bs.Short, err)
			}
			var monoLogs []float64
			for _, a := range monoAssignments {
				monoLogs = append(monoLogs, LogFidelity(monoRes, a))
			}
			if len(mcmLogs) == 0 {
				p.LogRatio = math.NaN()
			} else {
				p.LogRatio = stats.Mean(mcmLogs) - stats.Mean(monoLogs)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// monoInstances fabricates monolithic devices until `want` collision-free
// instances are found (or the batch budget is exhausted) and returns
// their full per-coupling error assignments.
//
// Trials run in worker-sized chunks, each on its own (seed, index)-
// derived RNG stream; selection keeps the first `want` collision-free
// trial indices, so the instances are identical at any worker count
// while the scan still stops early once enough survivors are found.
func monoInstances(ctx context.Context, cfg Config, dev *topo.Device, want int, seedOffset int64, det *noise.DetuningModel) ([]noise.Assignment, error) {
	if want <= 0 || cfg.MonoBatch <= 0 {
		return nil, ctx.Err()
	}
	scn := cfg.scn()
	checker := collision.NewChecker(dev, scn.Params)
	link := scn.Link
	campaign := cfg.Seed + seedOffset
	chunk := runner.Workers(cfg.Workers, cfg.MonoBatch) * 32
	mu := scn.Fab.Targets(dev)

	var out []noise.Assignment
	for lo := 0; lo < cfg.MonoBatch && len(out) < want; lo += chunk {
		hi := lo + chunk
		if hi > cfg.MonoBatch {
			hi = cfg.MonoBatch
		}
		found, err := runner.MapLocal(ctx, hi-lo, cfg.Workers,
			runner.NewScratch(dev.N),
			func(l runner.Scratch, j int) *noise.Assignment {
				r := l.RNG.At(campaign, lo+j)
				if !checker.SampleFree(r, mu, scn.Fab.Sigma, l.Buf) {
					return nil
				}
				a := noise.Assign(r.Rand(), dev, l.Buf, det, link)
				return &a
			})
		if err != nil {
			return nil, err
		}
		for _, a := range found {
			if a != nil {
				out = append(out, *a)
				if len(out) == want {
					break
				}
			}
		}
	}
	return out, nil
}
