// Command campaign drives scenario×experiment sweeps as one job
// against a fingerprint-keyed artifact store: the cross product of
// -experiments and -scenarios expands to a deterministic cell grid,
// cells already present in the store are served without re-simulating,
// and everything executed is persisted — so an interrupted campaign
// resumes where it stopped, a repeated campaign costs nothing, and
// -shard splits one campaign across independent processes. With -out,
// every cell's artifact is also written as files: this is how the
// paper's figures and tables are regenerated.
//
// Usage:
//
//	campaign -experiments fig4,fig8 -scenarios paper,future-fab -store artifacts
//	campaign -quick -store artifacts            # every experiment, paper scenario, smoke scale
//	campaign -store "" -out results             # the paper's evaluation, paper scale (minutes)
//	campaign -store "" -quick -experiments fig8,table2 -out results
//	                                            # results/fig8@paper.{txt,json}, results/table2@paper.{txt,json}
//	campaign -experiments fig4 -scenarios all -store "" -out results  # fig4 under every registered scenario
//	campaign -experiments genyield -generate "topos=hex-3x3-q16;sigmas=0.002,0.004" -store artifacts
//	                                            # generated-scenario grid (see internal/generate, cmd/explore)
//	campaign -list -scenarios all -store ""     # the experiment and scenario catalogs, then the grid
//	campaign ... -list                          # dry run: the plan's catalogs, cell grid + hit/miss status
//	campaign ... -shard 0/2 & campaign ... -shard 1/2   # split one campaign
//	campaign ... -resume=false                  # force re-execution, overwriting stored cells
//	campaign ... -json                          # machine-readable report on stdout
//
// Store administration (each runs instead of a campaign; exactly one
// admin verb per invocation):
//
//	campaign -store artifacts -verify           # audit every record; exit 1 naming bad files
//	campaign -store artifacts -backup dir       # snapshot every record into dir
//	campaign -store artifacts -restore dir      # copy a snapshot's records back, healing bad ones
//	campaign -store artifacts -prune            # delete broken records, strays, stale temps
//	campaign -store artifacts -gc -gc-keep 100  # evict least-recently-read records over the cap
//	campaign -store artifacts -pin nightly      # protect this grid's records from -gc
//	campaign -store artifacts -unpin nightly    # release that protection
//
// Daemon mode keeps one store open behind an HTTP API, so many
// clients share its cache and its worker budget (-slots jobs run
// concurrently; further submissions queue FIFO):
//
//	campaign -serve -store artifacts -addr :8080        # run the daemon
//	campaign -serve -generate "topos=..." -addr :8080   # daemon that resolves a generated grid (cmd/explore -addr)
//	campaign -submit -quick -addr :8080                 # queue a plan, print the job handle
//	campaign -submit -watch -json -addr :8080           # queue, stream events, print final status
//	campaign -job job-000001 -addr :8080                # one job's status (+ -watch to stream)
//	campaign -fetch fig8/0a1b2c3d4e5f -addr :8080       # one stored artifact by key
//	campaign -status -addr :8080                        # daemon + queue + store status
//	campaign -shutdown -addr :8080                      # graceful drain (SIGTERM works too)
//
// Interrupting the process (SIGINT/SIGTERM) cancels the in-flight
// cells promptly; completed cells stay in the store and are skipped on
// the next invocation. A daemon drains on the same signals: running
// jobs cancel cleanly, their completed cells stay persisted, and
// queued jobs report interrupted.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"chipletqc/internal/campaign"
	"chipletqc/internal/cli"
	"chipletqc/internal/daemon"
	"chipletqc/internal/experiment"
	"chipletqc/internal/generate"
	"chipletqc/internal/scenario"
	"chipletqc/internal/store"
	"chipletqc/internal/yield"
)

func main() { cli.Main("campaign", run) }

// run executes the tool against args, writing the report to out. It is
// the testable core of the binary.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := cli.NewFlagSet("campaign", errw)
	rf := cli.Bind(fs, cli.Quick|cli.TrialPolicy)
	var (
		experiments = fs.String("experiments", "", "comma-separated experiment names (default: every registered experiment)")
		scenarios   = fs.String("scenarios", "", "comma-separated device scenario names, or all for every registered scenario (default: paper)")
		genSpec     = fs.String("generate", "", "register a generated scenario grid `topos=...;sigmas=...;thresholds=...;links=...;base=...` and add its scenarios to the plan (with -serve: make the grid's names resolvable to submitted plans)")
		storeDir    = fs.String("store", "campaign-store", "artifact store directory; empty disables persistence")
		resume      = fs.Bool("resume", true, "serve cells already in the store instead of re-simulating; -resume=false forces re-execution")
		shardSpec   = fs.String("shard", "", "run only shard i of n of the cell grid, e.g. 0/2 (default: everything)")
		list        = fs.Bool("list", false, "print the plan's experiments and scenarios and its cell grid with store hit/miss status, and exit")
		jsonOut     = fs.Bool("json", false, "write the campaign report as JSON to stdout instead of text")
		progress    = fs.Bool("progress", false, "stream per-cell events to the error stream")
		outDir      = fs.String("out", "", "also write each cell's text rendering and Artifact JSON into this `directory` as <cell-id>.txt and <cell-id>.json")

		// Store admin verbs: each runs instead of a campaign.
		verify     = fs.Bool("verify", false, "admin: audit every store record (decode + identity cross-check); exit 1 naming bad files")
		backupDir  = fs.String("backup", "", "admin: snapshot every store record into this `directory`")
		restoreDir = fs.String("restore", "", "admin: copy records from this backup `directory` into the store, healing bad records")
		prune      = fs.Bool("prune", false, "admin: delete broken records, stray files, and stale temp files from the store")
		gcRun      = fs.Bool("gc", false, "admin: evict least-recently-read unpinned records until -gc-keep/-gc-max-bytes hold")
		gcKeep     = fs.Int("gc-keep", 0, "-gc record-count cap (0 = no count cap)")
		gcMaxBytes = fs.Int64("gc-max-bytes", 0, "-gc total-size cap in bytes (0 = no size cap)")
		pin        = fs.String("pin", "", "admin: pin this plan's stored cells under `label`, protecting them from -gc")
		unpin      = fs.String("unpin", "", "admin: remove every pin carrying `label` from the store")

		// Daemon mode and its client verbs.
		serve    = fs.Bool("serve", false, "run a campaign daemon on -addr over the store (empty -store keeps artifacts in memory)")
		addr     = fs.String("addr", ":8080", "daemon `address`: bind address with -serve, target for client verbs")
		slots    = fs.Int("slots", 0, "daemon: jobs running concurrently, sharing -workers; queued beyond that (0 = 2)")
		submit   = fs.Bool("submit", false, "client: submit this plan to the daemon at -addr and print the job handle")
		watch    = fs.Bool("watch", false, "client: with -submit or -job, stream the job's events and wait for its final status")
		jobID    = fs.String("job", "", "client: print the status of job `id` from the daemon at -addr")
		fetchKey = fs.String("fetch", "", "client: fetch the stored artifact for `experiment/fingerprint` from the daemon")
		dstatus  = fs.Bool("status", false, "client: print the daemon's queue and store status")
		shutdown = fs.Bool("shutdown", false, "client: ask the daemon to drain and exit")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ParseError(err)
	}
	// Which flags did the user actually set? Mode validation below
	// rejects set-but-ignored flags instead of silently dropping them.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	shard, err := campaign.ParseShard(*shardSpec)
	if err != nil {
		return err
	}
	scenarioNames := scenarioList(*scenarios)
	if *genSpec != "" {
		genNames, err := registerGenerated(*genSpec)
		if err != nil {
			return err
		}
		scenarioNames = append(scenarioNames, genNames...)
	}
	plan := campaign.Plan{
		Experiments: splitNames(*experiments),
		Scenarios:   scenarioNames,
		Seed:        rf.Seed(),
		Quick:       rf.Quick(),
	}
	policy, err := rf.Policy()
	if err != nil {
		return err
	}
	if policy != (yield.PolicyOverride{}) {
		plan.Overrides = []campaign.Override{{PolicyOverride: policy}}
	}

	admin := adminRequest{
		verify:  *verify,
		backup:  *backupDir,
		restore: *restoreDir,
		prune:   *prune,
		gc:      *gcRun,
		policy:  store.GCPolicy{MaxRecords: *gcKeep, MaxBytes: *gcMaxBytes},
		pin:     *pin,
		unpin:   *unpin,
	}
	clientVerbs := chosen(verb{"-submit", *submit}, verb{"-job", *jobID != ""},
		verb{"-fetch", *fetchKey != ""}, verb{"-status", *dstatus}, verb{"-shutdown", *shutdown})
	adminVerbs := chosen(verb{"-verify", *verify}, verb{"-backup", *backupDir != ""},
		verb{"-restore", *restoreDir != ""}, verb{"-prune", *prune}, verb{"-gc", *gcRun},
		verb{"-pin", *pin != ""}, verb{"-unpin", *unpin != ""})
	if err := checkModeFlags(explicit, *serve, clientVerbs, adminVerbs, errw); err != nil {
		return err
	}

	if *serve {
		return runServe(ctx, *storeDir, *addr, rf.Workers(), *slots, errw)
	}
	if len(clientVerbs) == 1 {
		return runClient(ctx, clientArgs{
			verb:    clientVerbs[0],
			addr:    *addr,
			plan:    plan,
			force:   !*resume,
			watch:   *watch,
			jobID:   *jobID,
			fetch:   *fetchKey,
			jsonOut: *jsonOut,
		}, out, errw)
	}

	if len(adminVerbs) == 1 {
		if *storeDir == "" {
			return cli.Usagef(errw, "campaign: store admin verbs need -store")
		}
		return runAdmin(*storeDir, admin, plan, shard, out)
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
		return listCells(plan, shard, st, out)
	}

	opts := campaign.Options{
		Store:   st,
		Force:   !*resume,
		Workers: rf.Workers(),
		Shard:   shard,
	}
	if *progress {
		opts.Progress = eventPrinter(errw)
	}
	rep, err := campaign.Run(ctx, plan, opts)
	if err != nil {
		return err
	}

	if *outDir != "" {
		if err := writeArtifacts(*outDir, rep.Cells); err != nil {
			return err
		}
	}
	if *jsonOut {
		return writeJSON(out, rep)
	}
	for _, r := range rep.Cells {
		if r.Cached {
			fmt.Fprintf(out, "%-10s %s (store hit)\n", "cached", r.Cell.ID())
		} else {
			fmt.Fprintf(out, "%-10s %s (%.1fs, %d trials)\n",
				"ran", r.Cell.ID(), r.Artifact.WallSeconds, r.Artifact.Trials)
		}
	}
	where := "no store"
	if st != nil {
		where = "store " + *storeDir
	}
	shardNote := ""
	if s := rep.Shard; s != "" {
		shardNote = fmt.Sprintf(", shard %s of a %d-cell grid", s, rep.GridSize)
	}
	fmt.Fprintf(out, "campaign: %d cells, %d executed, %d cached (%s%s)\n",
		rep.Total, rep.Executed, rep.Cached, where, shardNote)
	if *outDir != "" {
		fmt.Fprintf(out, "campaign: artifacts written to %s\n", *outDir)
	}
	return nil
}

// scenarioList parses -scenarios, expanding "all" to every registered
// scenario.
func scenarioList(s string) []string {
	var out []string
	for _, name := range splitNames(s) {
		if name == "all" {
			out = append(out, scenario.Names()...)
			continue
		}
		out = append(out, name)
	}
	return out
}

// writeArtifacts writes each cell's text rendering and Artifact JSON
// into dir as <cell-id>.txt and <cell-id>.json. A generated scenario's
// name contains slashes, so its files land in subdirectories.
func writeArtifacts(dir string, cells []campaign.CellResult) error {
	for _, r := range cells {
		base := filepath.Join(dir, r.Cell.ID())
		var js bytes.Buffer
		if err := r.Artifact.WriteJSON(&js); err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(base+".txt", []byte(r.Artifact.String()), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+".json", js.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// registerGenerated expands a -generate grid spec (internal/generate's
// compact axes syntax) and registers its scenarios in this process's
// registry, returning their names in grid order. Registration is
// idempotent, so a daemon restarted with the same grid, or a sharded
// rerun, resolves the same names to the same fingerprints.
func registerGenerated(spec string) ([]string, error) {
	baseName, axes, err := generate.ParseAxesSpec(spec)
	if err != nil {
		return nil, err
	}
	base, err := scenario.Lookup(baseName)
	if err != nil {
		return nil, err
	}
	gens, err := generate.Scenarios(base, axes)
	if err != nil {
		return nil, err
	}
	return generate.Ensure(gens)
}

// splitNames parses a comma-separated name list, dropping empties.
func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// listCells renders the dry-run view: the plan's experiments and
// scenarios, then every cell of this shard with its store key and
// hit/miss status.
func listCells(plan campaign.Plan, shard campaign.Shard, st store.Store, out io.Writer) error {
	grid, err := campaign.Expand(plan)
	if err != nil {
		return err
	}
	// Expand puts experiments outermost, so first appearances keep the
	// plan's order on both axes.
	var exps, scns []string
	seenExp, seenScn := map[string]bool{}, map[string]bool{}
	for _, c := range grid {
		if !seenExp[c.Experiment] {
			seenExp[c.Experiment] = true
			exps = append(exps, c.Experiment)
		}
		if !seenScn[c.Scenario] {
			seenScn[c.Scenario] = true
			scns = append(scns, c.Scenario)
		}
	}
	fmt.Fprintf(out, "%-12s %s\n", "NAME", "DESCRIPTION")
	for _, name := range exps {
		e, _ := experiment.Lookup(name)
		fmt.Fprintf(out, "%-12s %s\n", e.Name(), e.Describe())
	}
	fmt.Fprintf(out, "\n%-20s %-14s %s\n", "NAME", "FINGERPRINT", "DESCRIPTION")
	for _, name := range scns {
		s, _ := scenario.Lookup(name)
		fmt.Fprintf(out, "%-20s %-14s %s\n", s.Name, s.Fingerprint(), s.Description)
	}
	cells := shard.Filter(grid)
	fmt.Fprintf(out, "\n%-5s %-30s %-30s %s\n", "IDX", "CELL", "KEY", "STATUS")
	hits := 0
	for _, c := range cells {
		status := "miss"
		if st != nil && st.Has(c.Experiment, c.Fingerprint) {
			status = "hit"
			hits++
		}
		fmt.Fprintf(out, "%-5d %-30s %-30s %s\n", c.Index, c.ID(), c.Key(), status)
	}
	fmt.Fprintf(out, "%d cells (grid %d), %d store hits\n", len(cells), len(grid), hits)
	return nil
}

// writeJSON renders v as indented JSON — the CLI's machine face;
// scripts grep the two-space-indented keys.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// checkModeFlags enforces that every explicitly-set flag is meaningful
// in the selected mode. The failure this prevents is silent: a
// -gc-keep without -gc, or a -shard next to -verify, parses fine and
// then does nothing, so the user believes a cap or a restriction was
// applied when it was not. Each rejection names the conflict.
func checkModeFlags(explicit map[string]bool, serve bool, clientVerbs, adminVerbs []string, errw io.Writer) error {
	if (explicit["gc-keep"] || explicit["gc-max-bytes"]) && !slices.Contains(adminVerbs, "-gc") {
		return cli.Usagef(errw, "campaign: -gc-keep and -gc-max-bytes configure -gc, which was not requested; add -gc or drop them")
	}
	switch {
	case len(adminVerbs) > 1:
		return cli.Usagef(errw, "campaign: pick exactly one admin verb (-verify, -backup, -restore, -prune, -gc, -pin, -unpin)")
	case len(clientVerbs) > 1:
		return cli.Usagef(errw, "campaign: pick exactly one client verb (-submit, -job, -fetch, -status, -shutdown)")
	case serve && (len(clientVerbs) > 0 || len(adminVerbs) > 0):
		return cli.Usagef(errw, "campaign: -serve runs the daemon; it cannot be combined with client or admin verbs")
	case len(clientVerbs) > 0 && len(adminVerbs) > 0:
		return cli.Usagef(errw, "campaign: %s talks to a daemon and %s operates on a local store; run them separately", clientVerbs[0], adminVerbs[0])
	}

	planFlags := []string{"experiments", "scenarios", "generate", "quick", "seed", "precision", "maxtrials", "relprecision", "sampling"}
	allowed := map[string]bool{}
	add := func(names ...string) {
		for _, n := range names {
			allowed[n] = true
		}
	}
	var mode string
	switch {
	case serve:
		mode = "-serve"
		add("serve", "addr", "slots", "store", "workers", "generate")
	case len(clientVerbs) == 1:
		mode = clientVerbs[0]
		add(strings.TrimPrefix(mode, "-"), "addr", "json")
		switch mode {
		case "-submit":
			add(planFlags...)
			add("resume", "watch")
		case "-job":
			add("watch")
		}
	case len(adminVerbs) == 1:
		mode = adminVerbs[0]
		add(strings.TrimPrefix(mode, "-"), "store")
		switch mode {
		case "-gc":
			add("gc-keep", "gc-max-bytes")
		case "-pin":
			// -pin addresses this plan's (optionally sharded) grid.
			add(planFlags...)
			add("shard")
		}
	default:
		mode = "a campaign run"
		add(planFlags...)
		add("store", "resume", "shard", "workers", "list", "json", "progress", "out")
	}
	var stray []string
	for name := range explicit {
		if !allowed[name] {
			stray = append(stray, "-"+name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return cli.Usagef(errw, "campaign: %s %s no effect with %s; drop %s or change the mode",
			strings.Join(stray, ", "), plural(len(stray), "has", "have"), mode, plural(len(stray), "it", "them"))
	}
	return nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// runServe opens (or fabricates) the store and runs the daemon until a
// signal or a /v1/shutdown drains it.
func runServe(ctx context.Context, storeDir, addr string, workers, slots int, errw io.Writer) error {
	var st store.Store
	if storeDir == "" {
		// An addressable daemon is useful without a directory: repeat
		// submissions still hit the cache for the process lifetime.
		fmt.Fprintln(errw, "campaign: -serve without -store keeps artifacts in memory; they vanish when the daemon exits")
		st = store.OpenMem()
	} else {
		fsStore, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		defer fsStore.Close()
		st = fsStore
	}
	srv := daemon.New(daemon.Options{
		Store:   st,
		Workers: workers,
		Slots:   slots,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(errw, format+"\n", args...)
		},
	})
	return srv.ListenAndServe(ctx, addr)
}

// clientArgs carries one client-verb invocation.
type clientArgs struct {
	verb    string
	addr    string
	plan    campaign.Plan
	force   bool
	watch   bool
	jobID   string
	fetch   string
	jsonOut bool
}

// runClient dispatches one client verb against the daemon at -addr.
func runClient(ctx context.Context, c clientArgs, out, errw io.Writer) error {
	cl := daemon.NewClient(c.addr)
	switch c.verb {
	case "-submit":
		st, err := cl.Submit(ctx, c.plan, c.force)
		if err != nil {
			return err
		}
		if !c.watch {
			return printJob(out, st, c.jsonOut)
		}
		fmt.Fprintf(errw, "submitted %s (%d cells); watching\n", st.ID, st.GridSize)
		return watchJob(ctx, cl, st.ID, c.jsonOut, out, errw)
	case "-job":
		if c.watch {
			return watchJob(ctx, cl, c.jobID, c.jsonOut, out, errw)
		}
		st, err := cl.Job(ctx, c.jobID)
		if err != nil {
			return err
		}
		return printJob(out, st, c.jsonOut)
	case "-fetch":
		name, fingerprint, ok := strings.Cut(c.fetch, "/")
		if !ok || name == "" || fingerprint == "" {
			return cli.Usagef(errw, "campaign: -fetch wants experiment/fingerprint, e.g. -fetch fig8/0a1b2c3d4e5f")
		}
		a, found, err := cl.Artifact(ctx, name, fingerprint)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("daemon at %s holds no artifact for (%s, %s)", cl.BaseURL(), name, fingerprint)
		}
		if c.jsonOut {
			return a.WriteJSON(out)
		}
		return a.WriteText(out)
	case "-status":
		st, err := cl.Status(ctx)
		if err != nil {
			return err
		}
		if c.jsonOut {
			return writeJSON(out, st)
		}
		fmt.Fprintf(out, "daemon %s: %s, up %.0fs, %d of %d slots busy (%d workers per job)\n",
			cl.BaseURL(), st.State, st.UptimeSeconds, st.Running, st.Slots, st.JobWorkers)
		fmt.Fprintf(out, "jobs: %d queued, %d running, %d done, %d failed, %d interrupted\n",
			st.Queued, st.Running, st.Done, st.Failed, st.Interrupted)
		if st.StoreRecords >= 0 {
			where := "in memory"
			if st.StoreDir != "" {
				where = st.StoreDir
			}
			fmt.Fprintf(out, "store: %d records (%s)\n", st.StoreRecords, where)
		}
		return nil
	case "-shutdown":
		if err := cl.Shutdown(ctx); err != nil {
			return err
		}
		fmt.Fprintf(out, "daemon %s: draining\n", cl.BaseURL())
		return nil
	}
	return nil
}

// watchJob streams one job's events to the error stream and renders
// its terminal status; a job that did not finish done fails the
// invocation so scripts can gate on the exit code.
func watchJob(ctx context.Context, cl *daemon.Client, id string, jsonOut bool, out, errw io.Writer) error {
	printer := eventPrinter(errw)
	final, err := cl.Watch(ctx, id, func(e daemon.EventJSON) {
		ev := campaign.Event{Cell: e.Cell, Phase: e.Phase}
		if e.Error != "" {
			ev.Err = errors.New(e.Error)
		}
		printer(ev)
	})
	if err != nil {
		return err
	}
	if err := printJob(out, final, jsonOut); err != nil {
		return err
	}
	if final.State != daemon.StateDone {
		return fmt.Errorf("job %s finished %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// printJob renders one job status line (or the full JSON snapshot).
func printJob(out io.Writer, st daemon.JobStatus, jsonOut bool) error {
	if jsonOut {
		return writeJSON(out, st)
	}
	line := fmt.Sprintf("%s: %s, %d cells, %d executed, %d cached", st.ID, st.State, st.GridSize, st.Executed, st.Cached)
	if st.Error != "" {
		line += " — " + st.Error
	}
	fmt.Fprintln(out, line)
	return nil
}

// verb is one mode-selecting flag and whether the invocation set it.
type verb struct {
	name string
	on   bool
}

// chosen returns the names of the verbs that are set, in order.
func chosen(verbs ...verb) []string {
	var names []string
	for _, v := range verbs {
		if v.on {
			names = append(names, v.name)
		}
	}
	return names
}

// adminRequest collects the store admin flags; at most one verb may be
// set per invocation, because each verb is a complete program.
type adminRequest struct {
	verify  bool
	backup  string
	restore string
	prune   bool
	gc      bool
	policy  store.GCPolicy
	pin     string
	unpin   string
}

// runAdmin opens the store and dispatches the one selected admin verb.
func runAdmin(dir string, a adminRequest, plan campaign.Plan, shard campaign.Shard, out io.Writer) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	switch {
	case a.verify:
		return verifyStore(st, out)
	case a.backup != "":
		n, err := st.Backup(a.backup)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "store %s: backed up %d records to %s\n", dir, n, a.backup)
		return nil
	case a.restore != "":
		n, err := st.Restore(a.restore)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "store %s: restored %d records from %s\n", dir, n, a.restore)
		return nil
	case a.prune:
		rep, err := st.Prune()
		if err != nil {
			return err
		}
		for _, key := range rep.RemovedRecords {
			fmt.Fprintf(out, "pruned record %s\n", key)
		}
		for _, name := range rep.RemovedStrays {
			fmt.Fprintf(out, "pruned stray  %s\n", name)
		}
		fmt.Fprintf(out, "store %s: %d records checked, %d broken records, %d strays, %d stale temps removed\n",
			dir, rep.Checked, len(rep.RemovedRecords), len(rep.RemovedStrays), rep.RemovedTemps)
		return nil
	case a.gc:
		rep, err := st.GC(a.policy)
		if err != nil {
			return err
		}
		for _, key := range rep.EvictedKeys {
			fmt.Fprintf(out, "evicted %s\n", key)
		}
		fmt.Fprintf(out, "store %s: evicted %d of %d records (%d pinned), freed %d bytes, kept %d (%d bytes)\n",
			dir, rep.Evicted, rep.Examined, rep.Pinned, rep.FreedBytes, rep.Kept, rep.KeptBytes)
		return nil
	case a.pin != "":
		return pinCells(st, plan, shard, a.pin, out)
	case a.unpin != "":
		n, err := st.Unpin(a.unpin)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "store %s: released %d pins labelled %q\n", dir, n, a.unpin)
		return nil
	}
	return nil
}

// verifyStore audits every record and renders the findings; any issue
// fails the invocation so scripts can gate on the exit status.
func verifyStore(st *store.FS, out io.Writer) error {
	rep, err := store.Verify(st)
	if err != nil {
		return err
	}
	for _, issue := range rep.Issues {
		fmt.Fprintf(out, "BAD %-30s %s: %s\n", issue.Key, issue.Location, issue.Detail)
	}
	if !rep.OK() {
		return fmt.Errorf("store: verify found %d issues across %d records (restore from a backup, or -prune / delete the files above)",
			len(rep.Issues), rep.Checked)
	}
	fmt.Fprintf(out, "store %s: %d records verified, 0 issues\n", st.Dir(), rep.Checked)
	return nil
}

// pinCells pins every stored cell of this invocation's plan grid under
// the label, so a later -gc keeps the campaign warm.
func pinCells(st *store.FS, plan campaign.Plan, shard campaign.Shard, label string, out io.Writer) error {
	grid, err := campaign.Expand(plan)
	if err != nil {
		return err
	}
	cells := shard.Filter(grid)
	pinned := 0
	for _, c := range cells {
		if !st.Has(c.Experiment, c.Fingerprint) {
			continue
		}
		if err := st.Pin(label, c.Experiment, c.Fingerprint); err != nil {
			return err
		}
		pinned++
	}
	fmt.Fprintf(out, "store %s: pinned %d of %d cells under %q\n", st.Dir(), pinned, len(cells), label)
	return nil
}

// eventPrinter serialises concurrent campaign events onto one stream.
func eventPrinter(w io.Writer) func(campaign.Event) {
	var mu sync.Mutex
	return func(e campaign.Event) {
		mu.Lock()
		defer mu.Unlock()
		if e.Err != nil {
			fmt.Fprintf(w, "  %s %s: %v\n", e.Phase, e.Cell.ID(), e.Err)
			return
		}
		fmt.Fprintf(w, "  %s %s\n", e.Phase, e.Cell.ID())
	}
}
