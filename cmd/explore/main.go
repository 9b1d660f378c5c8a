// Command explore sweeps a generated design-space grid — topology
// families crossed with fabrication-precision, collision-threshold,
// and link-error axes — through the campaign engine and reports the
// Pareto frontier of yield versus fabrication spread versus device
// size.
//
// The grid expands to one generated scenario per cell (internal/
// generate), each registered under a canonical name like
// "gen/hex-3x3-q16/sigma0.004" and evaluated by the genyield
// experiment. Cells run through campaign.Run against the artifact
// store, so explorer runs are resumable, shardable, and cached exactly
// like preset campaigns: a repeated run executes nothing, and shards
// pointed at one store together produce the identical frontier.
//
// Usage:
//
//	explore -topos hex-3x3-q16,square-3x3-q16 -sigmas 0.002,0.004 -store artifacts
//	explore -grid "topos=hex-2x2-q16;sigmas=0.004,0.008;thresholds=0.5,1" -store artifacts
//	explore ... -quick                  # smoke-scale Monte Carlo batches
//	explore ... -list                   # dry run: cells + store hit/miss
//	explore ... -shard 0/2 & explore ... -shard 1/2   # split one grid
//	explore ... -json > frontier.json   # machine face: byte-stable frontier JSON
//	explore ... -addr :8080             # run cells on a daemon started with
//	                                    # campaign -serve -generate <same grid>
//
// The frontier (stdout) contains only deterministic fields — no wall
// times, no executed/cached counters — so its JSON is byte-identical
// across reruns and shardings of the same grid, seed, and scale. The
// run summary ("explore: N cells, X executed, Y cached ...") goes to
// the error stream.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"chipletqc/internal/campaign"
	"chipletqc/internal/cli"
	"chipletqc/internal/daemon"
	"chipletqc/internal/experiment"
	"chipletqc/internal/generate"
	"chipletqc/internal/report"
	"chipletqc/internal/scenario"
	"chipletqc/internal/store"
)

func main() { cli.Main("explore", run) }

// run executes the explorer against args, writing the frontier to out
// and the run summary to errw. It is the testable core of the binary.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := cli.NewFlagSet("explore", errw)
	rf := cli.Bind(fs, cli.Quick)
	var (
		grid       = fs.String("grid", "", "compact grid spec `topos=...;sigmas=...;thresholds=...;links=...;base=...` (alternative to the axis flags)")
		topos      = fs.String("topos", "", "comma-separated topology specs, e.g. hex-3x3-q16,heavy-hex-2x2-q20,stack3d-2x2x3-q9")
		sigmas     = fs.String("sigmas", "", "comma-separated fab sigma values in GHz (default: the base scenario's)")
		thresholds = fs.String("thresholds", "", "comma-separated Table I collision-threshold scale factors (default: 1)")
		links      = fs.String("links", "", "comma-separated mean inter-chip link infidelities (default: the base scenario's link model)")
		base       = fs.String("base", scenario.PaperName, "base scenario the grid perturbs")
		storeDir   = fs.String("store", "explore-store", "artifact store directory; empty disables persistence")
		resume     = fs.Bool("resume", true, "serve cells already in the store instead of re-simulating; -resume=false forces re-execution")
		shardSpec  = fs.String("shard", "", "run only shard i of n of the cell grid, e.g. 0/2 (default: everything)")
		list       = fs.Bool("list", false, "print the expanded cell grid with store hit/miss status and exit")
		jsonOut    = fs.Bool("json", false, "write the frontier as JSON to stdout instead of a table")
		progress   = fs.Bool("progress", false, "stream per-cell events to the error stream")
		addr       = fs.String("addr", "", "daemon `address`: run cells on a campaign daemon instead of locally (it must have been started with the same -generate grid)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseError(err)
	}

	baseName, axes, err := parseGrid(*grid, *topos, *sigmas, *thresholds, *links, *base, fs, errw)
	if err != nil {
		return err
	}
	baseScn, err := scenario.Lookup(baseName)
	if err != nil {
		return err
	}
	gens, err := generate.Scenarios(baseScn, axes)
	if err != nil {
		return err
	}
	names, err := generate.Ensure(gens)
	if err != nil {
		return err
	}
	byName := make(map[string]generate.Gen, len(gens))
	for _, g := range gens {
		byName[g.Scenario.Name] = g
	}

	shard, err := campaign.ParseShard(*shardSpec)
	if err != nil {
		return err
	}
	plan := campaign.Plan{
		Experiments: []string{experiment.GenYieldName},
		Scenarios:   names,
		Seed:        rf.Seed(),
		Quick:       rf.Quick(),
	}
	cells, err := campaign.Expand(plan)
	if err != nil {
		return err
	}

	if *addr != "" {
		return runDaemon(ctx, daemonArgs{
			addr:  *addr,
			plan:  plan,
			force: !*resume,
			cells: cells,
			gens:  byName,
			json:  *jsonOut,
		}, out, errw)
	}

	var st store.Store
	if *storeDir != "" {
		fsStore, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		defer fsStore.Close()
		st = fsStore
	}

	if *list {
		listCells(cells, shard, st, out)
		return nil
	}

	opts := campaign.Options{
		Store:   st,
		Force:   !*resume,
		Workers: rf.Workers(),
		Shard:   shard,
	}
	if *progress {
		opts.Progress = func(ev campaign.Event) {
			fmt.Fprintf(errw, "%-8s %s\n", ev.Phase, ev.Cell.ID())
		}
	}
	rep, err := campaign.Run(ctx, plan, opts)
	if err != nil {
		return err
	}

	// Frontier assembly reads every grid cell back — including cells
	// another shard ran — so a complete store always yields the full,
	// shard-independent frontier.
	fromRun := make(map[string]experiment.Artifact, len(rep.Cells))
	for _, r := range rep.Cells {
		fromRun[r.Cell.Fingerprint] = r.Artifact
	}
	var points []generate.Point
	missing := 0
	for _, c := range cells {
		a, ok := fromRun[c.Fingerprint]
		if !ok && st != nil {
			a, ok, err = st.Get(c.Experiment, c.Fingerprint)
			if err != nil {
				return err
			}
		}
		if !ok {
			missing++
			continue
		}
		p, err := generate.PointFromArtifact(byName[c.Scenario], a)
		if err != nil {
			return err
		}
		points = append(points, p)
	}
	pareto := generate.MarkPareto(points)

	where := "no store"
	if st != nil {
		where = "store " + *storeDir
	}
	shardNote := ""
	if s := rep.Shard; s != "" {
		shardNote = fmt.Sprintf(", shard %s", s)
	}
	missingNote := ""
	if missing > 0 {
		missingNote = fmt.Sprintf(", %d cells awaiting other shards", missing)
	}
	fmt.Fprintf(errw, "explore: %d-cell grid, %d executed, %d cached, %d frontier points (%s%s%s)\n",
		rep.GridSize, rep.Executed, rep.Cached, pareto, where, shardNote, missingNote)

	return writeFrontier(out, plan, points, pareto, *jsonOut)
}

// parseGrid resolves the grid flags into (base scenario name, axes):
// either the compact -grid spec or the individual axis flags, never
// both.
func parseGrid(grid, topos, sigmas, thresholds, links, base string, fs *flag.FlagSet, errw io.Writer) (string, generate.Axes, error) {
	if grid != "" {
		axisSet := false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "topos", "sigmas", "thresholds", "links", "base":
				axisSet = true
			}
		})
		if axisSet {
			return "", generate.Axes{}, cli.Usagef(errw, "explore: -grid already carries the axes; drop -topos/-sigmas/-thresholds/-links/-base")
		}
		return generate.ParseAxesSpec(grid)
	}
	if topos == "" {
		return "", generate.Axes{}, cli.Usagef(errw, "explore: no grid; set -topos (e.g. -topos hex-3x3-q16) or -grid")
	}
	var spec strings.Builder
	fmt.Fprintf(&spec, "topos=%s", topos)
	for _, axis := range []struct{ key, val string }{
		{"sigmas", sigmas}, {"thresholds", thresholds}, {"links", links},
	} {
		if axis.val != "" {
			fmt.Fprintf(&spec, ";%s=%s", axis.key, axis.val)
		}
	}
	fmt.Fprintf(&spec, ";base=%s", base)
	return generate.ParseAxesSpec(spec.String())
}

// daemonArgs collects the client-mode parameters.
type daemonArgs struct {
	addr  string
	plan  campaign.Plan
	force bool
	cells []campaign.Cell
	gens  map[string]generate.Gen
	json  bool
}

// runDaemon submits the plan to a live campaign daemon, waits for the
// job, and assembles the frontier from the daemon's store. The daemon
// resolves scenario names against its own registry, so it must have
// been started with the same generator grid (campaign -serve
// -generate ...).
func runDaemon(ctx context.Context, a daemonArgs, out, errw io.Writer) error {
	client := daemon.NewClient(a.addr)
	job, err := client.Submit(ctx, a.plan, a.force)
	if err != nil {
		return err
	}
	status, err := client.Watch(ctx, job.ID, nil)
	if err != nil {
		return err
	}
	if status.Error != "" {
		return fmt.Errorf("explore: daemon job %s failed: %s (a daemon serving generated grids needs campaign -serve -generate)", status.ID, status.Error)
	}
	var points []generate.Point
	for _, c := range a.cells {
		art, ok, err := client.Artifact(ctx, c.Experiment, c.Fingerprint)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("explore: daemon finished job %s but holds no artifact for cell %s", status.ID, c.ID())
		}
		p, err := generate.PointFromArtifact(a.gens[c.Scenario], art)
		if err != nil {
			return err
		}
		points = append(points, p)
	}
	pareto := generate.MarkPareto(points)
	fmt.Fprintf(errw, "explore: %d-cell grid, %d executed, %d cached, %d frontier points (daemon %s, job %s)\n",
		status.GridSize, status.Executed, status.Cached, pareto, a.addr, status.ID)
	return writeFrontier(out, a.plan, points, pareto, a.json)
}

// frontier is the machine face of the explorer: grid identity plus
// every evaluated point. All fields are deterministic for a given
// grid, seed, and scale, so the JSON is byte-stable across reruns and
// shardings.
type frontier struct {
	Experiment   string           `json:"experiment"`
	Seed         int64            `json:"seed"`
	Quick        bool             `json:"quick"`
	GridSize     int              `json:"grid_size"`
	ParetoPoints int              `json:"pareto_points"`
	Points       []generate.Point `json:"points"`
}

// writeFrontier renders the evaluated points: indented JSON with
// -json, an aligned table otherwise. Points stay in grid order.
func writeFrontier(out io.Writer, plan campaign.Plan, points []generate.Point, pareto int, asJSON bool) error {
	if asJSON {
		f := frontier{
			Experiment:   experiment.GenYieldName,
			Seed:         plan.Seed,
			Quick:        plan.Quick,
			GridSize:     len(plan.Scenarios),
			ParetoPoints: pareto,
			Points:       points,
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(f)
	}
	tb := report.New("Design-space frontier: yield vs fab sigma vs device size",
		"SCENARIO", "FAMILY", "QUBITS", "CHIPS", "LINKS", "SIGMA", "YIELD", "CI95", "TRIALS", "ESTIMATOR", "PARETO")
	for _, p := range points {
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		tb.Add(p.Scenario, p.Spec.Family, p.Qubits, p.Chips, p.Links,
			fmt.Sprintf("%g", p.Sigma), report.F(p.Yield, 6),
			fmt.Sprintf("[%s, %s]", report.F(p.CILo, 6), report.F(p.CIHi, 6)),
			p.Trials, p.Estimator, mark)
	}
	return tb.WriteText(out)
}

// listCells renders the dry-run grid view: every cell of this shard
// with its store key and hit/miss status.
func listCells(cells []campaign.Cell, shard campaign.Shard, st store.Store, out io.Writer) {
	mine := shard.Filter(cells)
	fmt.Fprintf(out, "%-5s %-42s %-30s %s\n", "IDX", "SCENARIO", "KEY", "STATUS")
	hits := 0
	for _, c := range mine {
		status := "miss"
		if st != nil && st.Has(c.Experiment, c.Fingerprint) {
			status = "hit"
			hits++
		}
		fmt.Fprintf(out, "%-5d %-42s %-30s %s\n", c.Index, c.Scenario, c.Key(), status)
	}
	fmt.Fprintf(out, "%d cells (grid %d), %d store hits\n", len(mine), len(cells), hits)
}
