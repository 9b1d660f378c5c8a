package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"chipletqc/internal/assembly"
	"chipletqc/internal/campaign"
	"chipletqc/internal/collision"
	"chipletqc/internal/compiler"
	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
	"chipletqc/internal/runner"
	"chipletqc/internal/sampling"
	"chipletqc/internal/scenario"
	"chipletqc/internal/store"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// simInput is one yield simulation a workload makes (or stands for).
type simInput struct {
	dev *topo.Device
	cfg yield.Config
}

// layerInputs are the inputs the traced run replays through each
// layer's public functions. Every workload starts from defaultInputs
// and replaces the parts it exercises itself, so each layer is
// measured on the workload's own inputs where it has them.
type layerInputs struct {
	seed   int64
	sims   []simInput    // fab, collision and yield replays
	isSims []simInput    // importance-sampled runs for the sampling layer
	grids  []mcm.Grid    // paper MCM systems for assembly, compiler and graph replays
	plan   campaign.Plan // experiment, campaign and store replays
	// service holds the workload's own daemon traffic; nil takes the
	// daemon latencies from the one-round probe of plan, which every
	// workload runs for the daemon's retained memory.
	service *serviceStats
}

// replays is how many trials of each simulation the fab, collision and
// sampling replays re-run at scale 1 (the 1-in-64 sample of a
// 32768-trial run).
const replays = 512

// defaultInputs are the paper-scenario inputs of the layers a workload
// does not exercise itself: the 100q device at the quick batch, the
// tight-thresholds 30q device importance-sampled to 20% relative CI,
// the four smallest MCM systems and a daemon round of probePlan.
func defaultInputs(e env) layerInputs {
	paper, tight := preset(scenario.PaperName), preset(scenario.TightThresholdsName)
	seed := unitSeed(e.seed, 0, 0)
	batch := scaled(eval.QuickConfigFor(paper, seed).MonoBatch, e.scale, 10)
	dev100 := topo.MonolithicDevice(topo.MonolithicSpec(100))
	tight30 := rareDevice{tight, topo.MonolithicDevice(topo.MonolithicSpec(30)), 0.2}
	return layerInputs{
		seed:   seed,
		sims:   []simInput{{dev100, paper.YieldConfig(batch, seed)}},
		isSims: []simInput{{tight30.dev, tight30.config(seed, e.scale)}},
		grids:  mcm.EnumerateGridsFrom(paper.Catalog, 40),
		plan:   probePlan(seed),
	}
}

// preset returns a scenario the scenario package registers at init; a
// missing one is a bug, not an input error.
func preset(name string) scenario.Scenario {
	s, err := scenario.Lookup(name)
	if err != nil {
		panic(err)
	}
	return s
}

// probe accumulates one layer measurement: total time over a count of
// calls.
type probe struct {
	d time.Duration
	n int
}

func (p *probe) add(d time.Duration, n int) { p.d += d; p.n += n }

// per returns the mean time per call in the given unit.
func (p probe) per(unit time.Duration) float64 {
	if p.n == 0 {
		return math.NaN()
	}
	return float64(p.d) / float64(p.n) / float64(unit)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// measureLayers runs every layer probe on the inputs and returns the
// per-layer metrics, except trace.overhead_ratio, which the caller
// computes from the timed phase.
func measureLayers(ctx context.Context, in layerInputs, e env, tr *tracer) (map[string]float64, error) {
	root, end := tr.begin(0, "bench", "layers")
	defer end()
	m := map[string]float64{}
	steps := []func(context.Context, layerInputs, env, *tracer, int, map[string]float64) error{
		probeRunner, probeFabCollision, probeYield, probeSampling,
		probeAssembly, probeCompiler, probeGraph, probeServiceLayers,
	}
	for _, step := range steps {
		if err := step(ctx, in, e, tr, root, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probeRunner times the Monte Carlo streaming loop around a trial that
// does nothing: the runner's per-trial overhead.
func probeRunner(ctx context.Context, in layerInputs, e env, tr *tracer, root int, m map[string]float64) error {
	n := scaled(1<<18, e.scale, 1<<12)
	var p probe
	for i := 0; i < 3; i++ {
		_, end := tr.begin(root, "runner", "StreamPlanned")
		d, err := timed(func() error {
			_, err := runner.StreamPlanned(ctx, n, 0, runner.Checkpoints(250, n),
				func() struct{} { return struct{}{} }, nil,
				func(struct{}, int) bool { return false },
				func(int, bool) {}, func(int) bool { return false })
			return err
		})
		end()
		if err != nil {
			return err
		}
		p.add(d, n)
	}
	m["runner.trial_overhead_ns"] = p.per(time.Nanosecond)
	return nil
}

// probeFabCollision replays 1-in-64 trials of each simulation: the
// fabrication draws first, then the collision checks on the same
// frequencies, each timed as a block.
func probeFabCollision(ctx context.Context, in layerInputs, e env, tr *tracer, root int, m map[string]float64) error {
	var fab, check probe
	free := 0
	rng := runner.NewTrialRNG()
	n := scaled(replays, e.scale, 64)
	for _, s := range in.sims {
		freqs := make([][]float64, n)
		for i := range freqs {
			freqs[i] = make([]float64, s.dev.N)
		}
		_, end := tr.begin(root, "fab", s.dev.Name)
		d, _ := timed(func() error {
			for i, f := range freqs {
				s.cfg.Model.SampleInto(rng.At(s.cfg.Seed, i*64), s.dev, f)
			}
			return nil
		})
		end()
		fab.add(d, n)
		checker := collision.NewChecker(s.dev, s.cfg.Params)
		var v collision.Violation
		_, end = tr.begin(root, "collision", s.dev.Name)
		d, _ = timed(func() error {
			for _, f := range freqs {
				if checker.FreeInto(&v, f) {
					free++
				}
			}
			return nil
		})
		end()
		check.add(d, n)
	}
	m["fab.sample_ns"] = fab.per(time.Nanosecond)
	m["collision.free_ns"] = check.per(time.Nanosecond)
	m["collision.free_ratio"] = ratio(float64(free), float64(check.n))
	return nil
}

// probeYield re-runs each simulation through yield.Simulate.
func probeYield(ctx context.Context, in layerInputs, e env, tr *tracer, root int, m map[string]float64) error {
	var p probe
	trials := 0
	for _, s := range in.sims {
		var res yield.Result
		_, end := tr.begin(root, "yield", s.dev.Name)
		d, err := timed(func() (err error) {
			res, err = yield.Simulate(ctx, s.dev, s.cfg)
			return err
		})
		end()
		if err != nil {
			return err
		}
		p.add(d, 1)
		trials += res.Batch
	}
	m["yield.simulate_ms"] = p.per(time.Millisecond)
	m["yield.trials_per_s"] = ratio(float64(trials), p.d.Seconds())
	m["yield.trials_per_simulate"] = ratio(float64(trials), float64(p.n))
	return nil
}

// probeSampling builds each importance estimator, replays its proposal
// draws, and runs it to its stop for the effective sample size.
func probeSampling(ctx context.Context, in layerInputs, e env, tr *tracer, root int, m map[string]float64) error {
	var build, draw probe
	deadEnds := 0
	ess, trials := 0.0, 0
	rng := runner.NewTrialRNG()
	for _, s := range in.isSims {
		buf := make([]float64, s.dev.N)
		var est sampling.Estimator
		_, end := tr.begin(root, "sampling", "New "+s.dev.Name)
		d, err := timed(func() (err error) {
			est, err = sampling.New(s.cfg.Sampling, s.dev, s.cfg.Model, s.cfg.Params)
			return err
		})
		end()
		if err != nil {
			return err
		}
		build.add(d, 1)
		n := scaled(8*replays, e.scale, 256)
		est.PlanBlock(0, n)
		_, end = tr.begin(root, "sampling", "SampleInto "+s.dev.Name)
		d, _ = timed(func() error {
			for i := 0; i < n; i++ {
				if math.IsInf(est.SampleInto(rng.At(s.cfg.Seed, i), i, buf), -1) {
					deadEnds++
				}
			}
			return nil
		})
		end()
		draw.add(d, n)
		_, end = tr.begin(root, "yield", "importance "+s.dev.Name)
		res, err := yield.Simulate(ctx, s.dev, s.cfg)
		end()
		if err != nil {
			return err
		}
		ess += res.ESS
		trials += res.Batch
	}
	m["sampling.new_ms"] = build.per(time.Millisecond)
	m["sampling.importance_ns"] = draw.per(time.Nanosecond)
	m["sampling.dead_end_ratio"] = ratio(float64(deadEnds), float64(draw.n))
	m["sampling.ess_ratio"] = ratio(ess, float64(trials))
	return nil
}

// probeAssembly fabricates a wafer-area-scaled chiplet batch of the
// quick size for each grid and assembles MCMs from it, as Fig. 10 does.
func probeAssembly(ctx context.Context, in layerInputs, e env, tr *tracer, root int, m map[string]float64) error {
	paper := preset(scenario.PaperName)
	batch := scaled(eval.QuickConfigFor(paper, in.seed).ChipletBatch, e.scale, 10)
	det := paper.DetuningModel(in.seed)
	var fab, asm probe
	free, made := 0, 0
	for i, g := range in.grids {
		var b *assembly.Batch
		_, end := tr.begin(root, "assembly", "Fabricate "+g.String())
		d, err := timed(func() (err error) {
			b, err = assembly.Fabricate(ctx, g.Spec, batch*g.Chips(), paper.BatchConfig(in.seed+int64(i), det, 0))
			return err
		})
		end()
		if err != nil {
			return err
		}
		fab.add(d, 1)
		var st assembly.Stats
		_, end = tr.begin(root, "assembly", "Assemble "+g.String())
		d, err = timed(func() (err error) {
			_, st, err = assembly.Assemble(ctx, b, g, paper.AssembleConfig(in.seed+int64(i)))
			return err
		})
		end()
		if err != nil {
			return err
		}
		asm.add(d, 1)
		free += st.FreeChiplets
		made += st.BatchSize
	}
	m["assembly.fabricate_ms"] = fab.per(time.Millisecond)
	m["assembly.assemble_ms"] = asm.per(time.Millisecond)
	m["assembly.kgd_ratio"] = ratio(float64(free), float64(made))
	return nil
}

// probeCompiler compiles each grid's benchmark suite onto the MCM and
// its monolithic counterpart, counting heap allocations and routing
// SWAPs.
func probeCompiler(ctx context.Context, in layerInputs, e env, tr *tracer, root int, m map[string]float64) error {
	var p probe
	var mallocs uint64
	swaps, twoQ := 0, 0
	for _, g := range in.grids {
		mcmDev, err := mcm.Build(g)
		if err != nil {
			return err
		}
		devs := []*topo.Device{mcmDev, topo.MonolithicDevice(g.MonolithicCounterpart())}
		width := qbench.UtilizedQubits(g.Qubits())
		for _, bs := range qbench.Suite() {
			circ := bs.Generate(width, in.seed)
			for _, dev := range devs {
				var res *compiler.Result
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, end := tr.begin(root, "compiler", bs.Short+" "+dev.Name)
				d, err := timed(func() (err error) {
					res, err = compiler.Compile(circ, dev)
					return err
				})
				end()
				runtime.ReadMemStats(&after)
				if err != nil {
					return fmt.Errorf("compile %s on %s: %w", bs.Short, dev.Name, err)
				}
				p.add(d, 1)
				mallocs += after.Mallocs - before.Mallocs
				swaps += res.SwapsInserted
				twoQ += res.Counts.TwoQ
			}
		}
	}
	m["compiler.compile_ms"] = p.per(time.Millisecond)
	m["compiler.allocs_per_compile"] = ratio(float64(mallocs), float64(p.n))
	m["compiler.swaps_per_2q"] = ratio(float64(swaps), float64(twoQ))
	return nil
}

// probeGraph times shortest-path queries between a fixed sample of
// qubit pairs on each grid's MCM coupling graph, the router's search.
func probeGraph(ctx context.Context, in layerInputs, e env, tr *tracer, root int, m map[string]float64) error {
	var p probe
	rng := rand.New(rand.NewSource(in.seed))
	for _, g := range in.grids {
		dev, err := mcm.Build(g)
		if err != nil {
			return err
		}
		pairs := make([][2]int, 256)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(dev.N), rng.Intn(dev.N)}
		}
		_, end := tr.begin(root, "graph", "ShortestPath "+g.String())
		d, err := timed(func() error {
			for _, pr := range pairs {
				if dev.G.ShortestPath(pr[0], pr[1]) == nil {
					return fmt.Errorf("%s: no path %d-%d", g, pr[0], pr[1])
				}
			}
			return nil
		})
		end()
		if err != nil {
			return err
		}
		p.add(d, len(pairs))
	}
	m["graph.shortest_path_ns"] = p.per(time.Nanosecond)
	return nil
}

// probeServiceLayers measures plan expansion and fingerprinting, the
// daemon traffic (the workload's own, or a probe round), and store
// I/O on a scratch store filled with the artifacts that traffic served.
func probeServiceLayers(ctx context.Context, in layerInputs, e env, tr *tracer, root int, m map[string]float64) error {
	const repeat = 50
	var cells []campaign.Cell
	var expand, fp probe
	_, end := tr.begin(root, "campaign", "Expand")
	d, err := timed(func() (err error) {
		for i := 0; i < repeat && err == nil; i++ {
			cells, err = campaign.Expand(in.plan)
		}
		return err
	})
	end()
	if err != nil {
		return err
	}
	expand.add(d, repeat)
	_, end = tr.begin(root, "experiment", "Fingerprint")
	d, _ = timed(func() error {
		for i := 0; i < repeat; i++ {
			for _, c := range cells {
				experiment.Fingerprint(c.Config)
			}
		}
		return nil
	})
	end()
	fp.add(d, repeat*len(cells))
	m["campaign.expand_us"] = expand.per(time.Microsecond)
	m["experiment.fingerprint_us"] = fp.per(time.Microsecond)

	probed, retained, err := daemonProbe(ctx, e, in.plan, tr, root)
	if err != nil {
		return err
	}
	m["daemon.retained_kib_per_job"] = retained
	st := in.service
	if st == nil {
		st = probed
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	m["campaign.run_ms"] = median(st.run)
	m["campaign.cache_hit_ratio"] = ratio(float64(st.cached), float64(st.cells))
	m["daemon.queue_wait_ms"] = median(st.queueWait)
	m["daemon.submit_ms"] = median(st.submit)
	m["daemon.http_overhead_ms"] = median(st.httpO)
	m["daemon.job_cold_ms"] = median(st.cold)
	m["daemon.job_warm_ms"] = median(st.warm)
	m["daemon.fetch_ms"] = median(st.fetch)
	return probeStore(st.artifacts, e, tr, root, m)
}

// probeStore puts, probes and reads back records on a scratch
// filesystem store. Each put gets its own synthetic fingerprint, so
// every record is a new key.
func probeStore(arts []experiment.Artifact, e env, tr *tracer, root int, m map[string]float64) error {
	if len(arts) == 0 {
		return fmt.Errorf("store probe: no artifacts were served")
	}
	dir, err := os.MkdirTemp(e.dir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	n := scaled(200, e.scale, 20)
	recs := make([]experiment.Artifact, n)
	for i := range recs {
		recs[i] = arts[i%len(arts)]
		recs[i].Fingerprint = fmt.Sprintf("be%010x", i)
	}
	var put, get, has probe
	var bytes int64
	_, end := tr.begin(root, "store", "Put")
	for _, a := range recs {
		var path string
		d, err := timed(func() (err error) {
			path, err = st.Put(a)
			return err
		})
		if err != nil {
			end()
			return err
		}
		put.add(d, 1)
		if fi, err := os.Stat(path); err == nil {
			bytes += fi.Size()
		}
	}
	end()
	_, end = tr.begin(root, "store", "Has")
	d, err := timed(func() error {
		for _, a := range recs {
			if !st.Has(a.Name, a.Fingerprint) {
				return fmt.Errorf("store probe: %s/%s missing after Put", a.Name, a.Fingerprint)
			}
		}
		return nil
	})
	end()
	if err != nil {
		return err
	}
	has.add(d, n)
	_, end = tr.begin(root, "store", "Get")
	d, err = timed(func() error {
		for _, a := range recs {
			if _, ok, err := st.Get(a.Name, a.Fingerprint); err != nil || !ok {
				return fmt.Errorf("store probe: get %s/%s: ok %t, %v", a.Name, a.Fingerprint, ok, err)
			}
		}
		return nil
	})
	end()
	if err != nil {
		return err
	}
	get.add(d, n)
	m["store.put_us"] = put.per(time.Microsecond)
	m["store.has_us"] = has.per(time.Microsecond)
	m["store.get_us"] = get.per(time.Microsecond)
	m["store.bytes_per_put"] = ratio(float64(bytes), float64(put.n))
	return st.Close()
}
