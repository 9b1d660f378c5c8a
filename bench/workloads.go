package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
	"chipletqc/internal/runner"
	"chipletqc/internal/sampling"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// goldenSeed is the default seed: every set-up runs its workload's
// reference unit at this seed and compares the output digest with
// testdata/golden.json, whatever -seed the timed phase uses.
const goldenSeed = 1

// op is one unit of user-visible work: its latency, the work it
// completed (what throughput_per_s counts) and whether it failed,
// either by returning an error or by failing an output check.
type op struct {
	dur  time.Duration
	work float64
	err  error
}

// env is what a workload is set up from.
type env struct {
	seed  int64
	scale float64
	dir   string // scratch directory for stores, inside the checkout
}

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// reference runs the fixed reference unit at goldenSeed and returns
	// the digest of its output.
	reference(ctx context.Context) (string, error)
	// round runs one round of the workload's fixed op mix on the inputs
	// numbered r (a traced run gives a traced round the inputs of the
	// untraced round before it). tr is nil in untraced rounds; parent
	// is the round's span.
	round(ctx context.Context, r int, tr *tracer, parent int) []op
	// inputs are what the traced run replays through the lower layers.
	inputs() layerInputs
	close() error
}

type workloadDef struct {
	name, why string
	setup     func(ctx context.Context, e env) (workload, error)
}

// workloads are the benchmark's workloads; BENCHMARK.json lists the
// same names and reasons.
var workloads = []workloadDef{
	{"yield-sweep", "plain Monte Carlo: fab sampling and collision checks dominate, assembly in fig8, compiler idle", newYieldSweep},
	{"rare-event", "importance-sampled yield to a relative-CI stop: proposal quality sets the trial count, fab sampling bypassed", newRareEvent},
	{"app-fidelity", "Fig. 10 application fidelity: compiler routing and graph search dominate, Monte Carlo light", newAppFidelity},
	{"campaign-service", "daemon over a file store, 2 closed-loop clients: cold jobs write the store, warm jobs and fetches read it", newCampaignService},
}

func lookupWorkload(name string) (workloadDef, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// unitSeed derives the seed of unit k of round r from the run seed, so
// the same -seed gives the same inputs and units never share a stream.
func unitSeed(seed int64, r, k int) int64 { return runner.Seed(seed, r<<10|k) }

// scaled multiplies a work size by the -scale factor, keeping it at
// least lo.
func scaled(n int, scale float64, lo int) int {
	v := int(math.Round(float64(n) * scale))
	if v < lo {
		return lo
	}
	return v
}

// timed runs fn and returns its wall time.
func timed(fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	return time.Since(t), err
}

// ms converts a duration to milliseconds, keeping its nanoseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// --- yield-sweep -------------------------------------------------------

// yieldSweep regenerates the plain Monte Carlo figures at the quick
// (campaign -quick) scale: each round runs the registry's fig1, fig4
// and fig8, one op each. Their run times differ by 2-4x, so the median
// op is always a fig4 and the 90th percentile always a fig8.
type yieldSweep struct {
	e    env
	scn  scenario.Scenario
	exps []experiment.Experiment
}

func newYieldSweep(ctx context.Context, e env) (workload, error) {
	scn, err := scenario.Lookup(scenario.PaperName)
	if err != nil {
		return nil, err
	}
	w := &yieldSweep{e: e, scn: scn}
	for _, name := range []string{"fig1", "fig4", "fig8"} {
		x, ok := experiment.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("yield-sweep: %s is not registered", name)
		}
		w.exps = append(w.exps, x)
	}
	return w, nil
}

func (w *yieldSweep) config(seed int64, scale float64) eval.Config {
	c := eval.QuickConfigFor(w.scn, seed)
	c.MonoBatch = scaled(c.MonoBatch, scale, 10)
	c.ChipletBatch = scaled(c.ChipletBatch, scale, 10)
	c.Fig4MaxQubits = scaled(c.Fig4MaxQubits, scale, 10)
	c.MaxQubits = scaled(c.MaxQubits, scale, 20)
	return c
}

// run runs one experiment under cfg and checks its artifact.
func (w *yieldSweep) run(ctx context.Context, x experiment.Experiment, cfg eval.Config) (experiment.Artifact, error) {
	a, err := x.Run(ctx, cfg)
	if err != nil {
		return a, err
	}
	return a, checkYieldArtifact(a, cfg.MonoBatch)
}

func (w *yieldSweep) reference(ctx context.Context) (string, error) {
	cfg := w.config(goldenSeed, 1)
	var sb strings.Builder
	for _, x := range w.exps {
		a, err := w.run(ctx, x, cfg)
		if err != nil {
			return "", err
		}
		sb.WriteString(a.String())
	}
	return digest(sb.String()), nil
}

func (w *yieldSweep) round(ctx context.Context, r int, tr *tracer, parent int) []op {
	cfg := w.config(unitSeed(w.e.seed, r, 0), w.e.scale)
	ops := make([]op, 0, len(w.exps))
	for _, x := range w.exps {
		var a experiment.Artifact
		_, end := tr.begin(parent, "experiment", x.Name())
		d, err := timed(func() (err error) {
			a, err = w.run(ctx, x, cfg)
			return err
		})
		end()
		ops = append(ops, op{dur: d, work: float64(a.Trials), err: err})
	}
	return ops
}

func (w *yieldSweep) inputs() layerInputs {
	in := defaultInputs(w.e)
	cfg := w.config(in.seed, w.e.scale)
	in.sims = nil
	for _, q := range []int{50, 100, 200} {
		dev := topo.MonolithicDevice(topo.MonolithicSpec(q))
		in.sims = append(in.sims, simInput{dev, w.scn.YieldConfig(cfg.MonoBatch, in.seed)})
	}
	return in
}

func (w *yieldSweep) close() error { return nil }

// checkYieldArtifact checks every payload row that carries a yield: it
// lies in [0, 1] and, where the row also carries trials and a CI, the
// interval brackets it (to the table's 4-decimal rounding) and the
// trials stay within the cap. Fig. 8 is checked on its monolithic
// columns, the ones with a CI.
func checkYieldArtifact(a experiment.Artifact, maxTrials int) error {
	if a.Payload == nil || a.Trials <= 0 {
		return fmt.Errorf("%s: empty artifact (trials %d)", a.Name, a.Trials)
	}
	cols := map[string]int{}
	for i, h := range a.Payload.Headers {
		cols[h] = i
	}
	prefix := ""
	if a.Name == "fig8" {
		prefix = "mono_"
	}
	iy, okY := cols[prefix+"yield"]
	it, okT := cols[prefix+"trials"]
	il, okL := cols[prefix+"ci_lo"]
	ih, okH := cols[prefix+"ci_hi"]
	withCI := okT && okL && okH
	if !okY {
		return fmt.Errorf("%s: payload has no %syield column", a.Name, prefix)
	}
	checked := 0
	for _, row := range a.Payload.Rows {
		y, err := strconv.ParseFloat(row[iy], 64)
		if err != nil {
			continue // separator and summary rows
		}
		if y < 0 || y > 1 {
			return fmt.Errorf("%s: yield %g outside [0, 1]", a.Name, y)
		}
		checked++
		if !withCI {
			continue
		}
		t, e1 := strconv.Atoi(row[it])
		lo, e2 := strconv.ParseFloat(row[il], 64)
		hi, e3 := strconv.ParseFloat(row[ih], 64)
		if e1 != nil || e2 != nil || e3 != nil {
			return fmt.Errorf("%s: row %q has a yield but no trials or CI", a.Name, row)
		}
		const round = 1e-4
		if lo > y+round || hi < y-round {
			return fmt.Errorf("%s: CI [%g, %g] does not bracket yield %g", a.Name, lo, hi, y)
		}
		if t <= 0 || t > maxTrials {
			return fmt.Errorf("%s: %d trials outside (0, %d]", a.Name, t, maxTrials)
		}
	}
	if checked == 0 {
		return fmt.Errorf("%s: no yield rows", a.Name)
	}
	return nil
}

// --- rare-event --------------------------------------------------------

// rareCap is the rare-event trial budget. Every device stops at its
// relative-CI target well inside it; hitting it counts as a failure.
const rareCap = 1 << 20

// rareDevice is one importance-sampled estimate the rare-event
// workload makes: a monolithic device under a scenario, run to a
// relative CI target.
type rareDevice struct {
	scn scenario.Scenario
	dev *topo.Device
	rel float64
}

// rareEvent estimates deep-low and paper-scale yields with importance
// sampling to an adaptive stop: one op is one device's estimate.
//
// The same estimate on two workers takes either about 1x or about 2x
// as long from call to call (README.md, "Known behaviour"), and the
// share of slow calls changes from run to run. A percentile that falls
// between one estimate's two modes would flip between them, so a round
// is a ladder of paper estimates whose trial counts double from rung to
// rung: 2000 and 4000 trials on 200q, 8000 and 16000 on 300q. A slow
// call of one rung takes about as long as a fast call of the next, so
// the median lands on the shared time of the 200q pair and the 90th
// percentile on that of the 300q pair, whatever the share of slow
// calls. Three tight-thresholds estimates (16, 20 and 24 qubits to a
// 15% relative CI) sit below the ladder. Each target stops at one
// doubling checkpoint for nearly every seed.
type rareEvent struct {
	e       env
	devices []rareDevice
	ref     []rareDevice
}

func newRareEvent(ctx context.Context, e env) (workload, error) {
	tight, err := scenario.Lookup(scenario.TightThresholdsName)
	if err != nil {
		return nil, err
	}
	paper, err := scenario.Lookup(scenario.PaperName)
	if err != nil {
		return nil, err
	}
	w := &rareEvent{e: e}
	add := func(s scenario.Scenario, rel float64, qubits ...int) error {
		for _, q := range qubits {
			d := rareDevice{s, topo.MonolithicDevice(topo.MonolithicSpec(q)), rel}
			// Construct the estimator once up front: a device the
			// conditioned proposal cannot handle fails set-up, not a round.
			cfg := d.config(goldenSeed, 1)
			if _, err := sampling.New(cfg.Sampling, d.dev, cfg.Model, cfg.Params); err != nil {
				return fmt.Errorf("rare-event %s: %w", d.dev.Name, err)
			}
			w.devices = append(w.devices, d)
		}
		return nil
	}
	// Trials grow as 1/rel^2: rel/Sqrt2 needs twice the trials of rel,
	// and rel/2 four times.
	const rel = 0.04
	for _, err := range []error{
		add(tight, 0.15, 16, 20, 24),
		add(paper, rel, 200, 200, 200),
		add(paper, rel/math.Sqrt2, 200, 200, 200, 300),
		add(paper, rel/2, 300),
	} {
		if err != nil {
			return nil, err
		}
	}
	// The reference: tight 16q and 24q, and paper 200q at 4%.
	w.ref = []rareDevice{w.devices[0], w.devices[2], w.devices[3]}
	return w, nil
}

// config is the device's importance-sampled, relative-precision run
// on every CPU (Workers 0), as the tools and the daemon run it. Scale
// divides the trial need: the target widens by 1/sqrt(scale).
func (d rareDevice) config(seed int64, scale float64) yield.Config {
	c := d.scn.YieldConfig(d.scn.Trials.MonoBatch, seed)
	c.Sampling = sampling.Spec{Method: sampling.Importance}
	c.RelPrecision = d.rel / math.Sqrt(scale)
	c.MaxTrials = rareCap
	return c
}

// estimate runs one device to its stop and checks the result.
func (d rareDevice) estimate(ctx context.Context, cfg yield.Config) (yield.Result, error) {
	res, err := yield.Simulate(ctx, d.dev, cfg)
	if err != nil {
		return res, err
	}
	switch {
	case res.Estimator != sampling.Importance:
		return res, fmt.Errorf("%s: estimator %q, want importance", d.dev.Name, res.Estimator)
	case res.Batch <= 0 || res.Batch > cfg.MaxTrials:
		return res, fmt.Errorf("%s: %d trials outside (0, %d]", d.dev.Name, res.Batch, cfg.MaxTrials)
	case !(res.Yield > 0) || res.CILo > res.Yield || res.CIHi < res.Yield:
		return res, fmt.Errorf("%s: CI [%g, %g] does not bracket yield %g", d.dev.Name, res.CILo, res.CIHi, res.Yield)
	case res.HalfWidth() > cfg.RelPrecision*res.Yield:
		return res, fmt.Errorf("%s: stopped at %d trials without reaching %g relative CI", d.dev.Name, res.Batch, cfg.RelPrecision)
	case !(res.ESS > 0):
		return res, fmt.Errorf("%s: effective sample size %g", d.dev.Name, res.ESS)
	}
	return res, nil
}

func (w *rareEvent) reference(ctx context.Context) (string, error) {
	var sb strings.Builder
	for _, d := range w.ref {
		res, err := d.estimate(ctx, d.config(goldenSeed, 1))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%s %d %.9g %.9g %.9g %.9g\n", res.Device, res.Batch, res.Yield, res.CILo, res.CIHi, res.ESS)
	}
	return digest(sb.String()), nil
}

func (w *rareEvent) round(ctx context.Context, r int, tr *tracer, parent int) []op {
	ops := make([]op, 0, len(w.devices))
	for k, d := range w.devices {
		var res yield.Result
		_, end := tr.begin(parent, "yield", d.dev.Name)
		dur, err := timed(func() (err error) {
			res, err = d.estimate(ctx, d.config(unitSeed(w.e.seed, r, k), w.e.scale))
			return err
		})
		end()
		ops = append(ops, op{dur: dur, work: float64(res.Batch), err: err})
	}
	return ops
}

func (w *rareEvent) inputs() layerInputs {
	in := defaultInputs(w.e)
	in.sims = nil
	for k, d := range w.devices {
		in.sims = append(in.sims, simInput{d.dev, d.config(unitSeed(w.e.seed, 0, k), w.e.scale)})
	}
	in.isSims = in.sims
	return in
}

func (w *rareEvent) close() error { return nil }

// --- app-fidelity ------------------------------------------------------

// appFidelityMaxQubits bounds the evaluated MCM systems: the 18 paper
// systems up to 100 qubits, whose Fig. 10 evaluations take 5 to 150 ms
// each, so a run holds well over 100 ops. The next system, 1x11 of 10
// qubits, takes over twice as long as any of them; as the lone 5% of
// ops above the rest it put the 90th percentile on the tail of the
// 100-150 ms systems, and its spread over ten runs was 0.15 instead of
// 0.07.
const appFidelityMaxQubits = 100

// appFidelity evaluates the Fig. 10 benchmark suite on MCM systems
// against their monolithic counterparts: one op is one system.
type appFidelity struct {
	e     env
	scn   scenario.Scenario
	grids []mcm.Grid
	ref   []mcm.Grid
	suite []qbench.Spec
}

func newAppFidelity(ctx context.Context, e env) (workload, error) {
	scn, err := scenario.Lookup(scenario.PaperName)
	if err != nil {
		return nil, err
	}
	w := &appFidelity{
		e:     e,
		scn:   scn,
		grids: mcm.EnumerateGridsFrom(scn.Catalog, scaled(appFidelityMaxQubits, e.scale, 20)),
		ref:   mcm.EnumerateGridsFrom(scn.Catalog, 40),
		suite: qbench.Suite(),
	}
	if len(w.grids) == 0 || len(w.ref) == 0 {
		return nil, errors.New("app-fidelity: the paper catalog enumerates no MCM systems")
	}
	return w, nil
}

func (w *appFidelity) config(seed int64, scale float64) eval.Config {
	c := eval.QuickConfigFor(w.scn, seed)
	c.MonoBatch = scaled(c.MonoBatch, scale, 10)
	c.ChipletBatch = scaled(c.ChipletBatch, scale, 10)
	return c
}

// system evaluates one MCM system and checks its points.
func (w *appFidelity) system(ctx context.Context, cfg eval.Config, g mcm.Grid) ([]eval.Fig10Point, error) {
	pts, err := eval.Fig10(ctx, cfg, []mcm.Grid{g}, cfg.Fig10Samples)
	if err != nil {
		return nil, err
	}
	if len(pts) != len(w.suite) {
		return nil, fmt.Errorf("%s: %d points, want %d", g, len(pts), len(w.suite))
	}
	for i, p := range pts {
		switch {
		case p.Bench != w.suite[i].Short || p.Qubits != g.Qubits():
			return nil, fmt.Errorf("%s: point %d is %s on %dq, want %s on %dq", g, i, p.Bench, p.Qubits, w.suite[i].Short, g.Qubits())
		case p.TwoQ <= 0:
			return nil, fmt.Errorf("%s %s: compiled to %d two-qubit gates", g, p.Bench, p.TwoQ)
		case p.MonoZero != math.IsInf(p.LogRatio, 1):
			return nil, fmt.Errorf("%s %s: log ratio %g with mono-zero %t", g, p.Bench, p.LogRatio, p.MonoZero)
		}
	}
	return pts, nil
}

func (w *appFidelity) reference(ctx context.Context) (string, error) {
	cfg := w.config(goldenSeed, 1)
	var sb strings.Builder
	for _, g := range w.ref {
		pts, err := w.system(ctx, cfg, g)
		if err != nil {
			return "", err
		}
		for _, p := range pts {
			fmt.Fprintf(&sb, "%s %s %d %.9g %t\n", g, p.Bench, p.TwoQ, p.LogRatio, p.MonoZero)
		}
	}
	return digest(sb.String()), nil
}

func (w *appFidelity) round(ctx context.Context, r int, tr *tracer, parent int) []op {
	cfg := w.config(unitSeed(w.e.seed, r, 0), w.e.scale)
	ops := make([]op, 0, len(w.grids))
	for _, g := range w.grids {
		var pts []eval.Fig10Point
		_, end := tr.begin(parent, "eval", g.String())
		dur, err := timed(func() (err error) {
			pts, err = w.system(ctx, cfg, g)
			return err
		})
		end()
		ops = append(ops, op{dur: dur, work: float64(len(pts)), err: err})
	}
	return ops
}

func (w *appFidelity) inputs() layerInputs {
	in := defaultInputs(w.e)
	in.grids = w.grids
	in.sims = nil
	cfg := w.config(in.seed, w.e.scale)
	for _, g := range w.grids {
		dev := topo.MonolithicDevice(g.MonolithicCounterpart())
		in.sims = append(in.sims, simInput{dev, w.scn.YieldConfig(cfg.MonoBatch, in.seed)})
	}
	return in
}

func (w *appFidelity) close() error { return nil }
