package campaign

import (
	"context"
	"fmt"
	"time"

	"chipletqc/internal/experiment"
	"chipletqc/internal/runner"
	"chipletqc/internal/store"
)

// Phase labels a campaign progress event.
type Phase string

// Campaign event phases, in the order a cell can emit them.
const (
	// PhaseRun fires when a cell misses the store and starts executing.
	PhaseRun Phase = "run"
	// PhaseCached fires when a cell is served from the store.
	PhaseCached Phase = "cached"
	// PhaseDone fires when an executed cell completes and is persisted.
	PhaseDone Phase = "done"
	// PhaseError fires when an executed cell fails.
	PhaseError Phase = "error"
)

// Event is one campaign progress observation. Events may arrive
// concurrently from the cells in flight; handlers must be safe for
// concurrent use.
type Event struct {
	Cell  Cell
	Phase Phase
	// Err is set on PhaseError events.
	Err error
}

// Options configures a campaign run.
type Options struct {
	// Store persists and serves cell artifacts; any store.Store backend
	// (filesystem, in-memory, or a third-party backend passing the
	// storetest conformance suite) works, because the engine relies
	// only on the fingerprint-keyed cache contract. nil runs the
	// campaign without persistence (every cell executes).
	Store store.Store
	// Force executes every cell even when the store already holds its
	// artifact, overwriting the stored record.
	Force bool
	// Workers is the total worker budget, split between cells in
	// flight and each cell's inner Monte Carlo fan-out (runner.Split);
	// <= 0 means GOMAXPROCS.
	Workers int
	// Shard restricts the run to one partition of the cell grid; the
	// zero value runs everything.
	Shard Shard
	// Progress, when non-nil, receives campaign events.
	Progress func(Event)
}

// emit delivers a progress event when a handler is installed.
func (o *Options) emit(e Event) {
	if o.Progress != nil {
		o.Progress(e)
	}
}

// emitError delivers a PhaseError event unless the campaign is being
// cancelled. All cell-failure paths report through here so the rule is
// uniform: an interruption (SIGINT, daemon drain) is not a cell
// failure, and event consumers — the CLI's -progress stream and the
// daemon's SSE subscribers — must never see a spurious error for a
// cell that was merely cancelled mid-flight.
func (o *Options) emitError(ctx context.Context, cell Cell, err error) {
	if ctx.Err() != nil {
		return
	}
	o.emit(Event{Cell: cell, Phase: PhaseError, Err: err})
}

// CellResult is one cell's outcome: its artifact and how it was
// obtained.
type CellResult struct {
	Cell Cell `json:"cell"`
	// Cached reports that the artifact came from the store rather than
	// an execution.
	Cached   bool                `json:"cached"`
	Artifact experiment.Artifact `json:"artifact"`
}

// Report summarises a completed campaign run.
type Report struct {
	// GridSize is the full plan grid; Total is this run's share of it
	// (equal unless sharded).
	GridSize int `json:"grid_size"`
	Total    int `json:"total"`
	// Executed counts cells that ran a simulation; Cached counts cells
	// served from the store.
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
	// Shard is the partition this run covered ("" when unsharded).
	Shard string `json:"shard,omitempty"`
	// WallSeconds is the whole run's wall-clock time.
	WallSeconds float64 `json:"wall_time_seconds"`
	// Cells are the per-cell outcomes in grid order.
	Cells []CellResult `json:"cells"`
}

// Run expands the plan, filters it to the options' shard, and executes
// the cells concurrently, serving warm store keys from the store
// instead of re-simulating and persisting every executed artifact.
//
// Cells fail the campaign fast: the first (lowest grid index) cell
// error aborts the run, as does context cancellation, and partial
// results are discarded — but artifacts persisted before the
// interruption stay in the store, so re-running the same plan resumes
// by executing only the missing cells.
func Run(ctx context.Context, p Plan, opts Options) (Report, error) {
	start := time.Now()
	grid, err := Expand(p)
	if err != nil {
		return Report{}, err
	}
	if err := opts.Shard.Validate(); err != nil {
		return Report{}, err
	}
	cells := opts.Shard.Filter(grid)
	outer, inner := splitBudget(&opts, cells)

	results, err := runner.Map(ctx, len(cells), outer, func(i int) (CellResult, error) {
		return runCell(ctx, cells[i], &opts, inner)
	})
	if err != nil {
		return Report{}, err
	}

	rep := Report{
		GridSize:    len(grid),
		Total:       len(cells),
		Shard:       opts.Shard.String(),
		WallSeconds: time.Since(start).Seconds(),
		Cells:       results,
	}
	for _, r := range results {
		if r.Cached {
			rep.Cached++
		} else {
			rep.Executed++
		}
	}
	return rep, nil
}

// splitBudget divides the worker budget between cells in flight and
// each executing cell's inner Monte Carlo fan-out. A plain
// runner.Split over all cells would starve the resume path: a warm
// store can leave a single missing cell, and splitting by the full
// grid would run its simulation near single-threaded while the other
// workers burn through instant cache hits. So the inner share is sized
// by the cells that will actually execute (a cheap Has probe; Force
// and store-less runs execute everything). The probe is advisory, not
// load-bearing: siblings filling the store meanwhile make the estimate
// conservative, and siblings evicting records make it optimistic —
// runCell treats a probe/Get disagreement as an ordinary miss either
// way, so the budget only shapes concurrency, never correctness.
func splitBudget(opts *Options, cells []Cell) (outer, inner int) {
	misses := len(cells)
	if opts.Store != nil && !opts.Force {
		misses = 0
		for _, c := range cells {
			if !opts.Store.Has(c.Experiment, c.Fingerprint) {
				misses++
			}
		}
	}
	outer = runner.Workers(opts.Workers, len(cells))
	_, inner = runner.Split(opts.Workers, max(misses, 1))
	return outer, inner
}

// runCell resolves one cell: store hit, or execution + persistence.
func runCell(ctx context.Context, cell Cell, opts *Options, workers int) (CellResult, error) {
	if opts.Store != nil && !opts.Force {
		a, ok, err := opts.Store.Get(cell.Experiment, cell.Fingerprint)
		if err != nil {
			return CellResult{}, fmt.Errorf("campaign: cell %s: %w", cell.ID(), err)
		}
		if ok {
			opts.emit(Event{Cell: cell, Phase: PhaseCached})
			return CellResult{Cell: cell, Cached: true, Artifact: a}, nil
		}
		// ok == false falls through to execution even when splitBudget's
		// Has probe counted this cell as a hit. The two can legitimately
		// disagree: on a shared store directory a sibling process may GC
		// or prune the record between the probe and this Get, and the FS
		// backend's per-process index can outlive the file. A vanished
		// record is a plain miss — the cell re-simulates (with a
		// slightly generous inner worker budget, which is harmless under
		// the determinism contract) rather than failing the campaign.
	}
	exp, ok := experiment.Lookup(cell.Experiment)
	if !ok {
		// Expand validated the name; losing it mid-run is a programming
		// error in a caller-registered experiment, not a user mistake.
		return CellResult{}, fmt.Errorf("campaign: cell %s: experiment vanished from the registry", cell.ID())
	}
	opts.emit(Event{Cell: cell, Phase: PhaseRun})
	cfg := cell.Config
	cfg.Workers = workers
	a, err := exp.Run(ctx, cfg)
	if err != nil {
		opts.emitError(ctx, cell, err)
		return CellResult{}, fmt.Errorf("campaign: cell %s: %w", cell.ID(), err)
	}
	// The artifact must identify as this cell, or the store would file
	// it under a key the next run's Get never consults and the cache
	// contract would silently break. The registry wrapper
	// (experiment.New) always stamps these; hand-rolled Experiment
	// implementations may leave them empty, which we fill in.
	if a.Name == "" {
		a.Name = cell.Experiment
	}
	if a.Fingerprint == "" {
		a.Fingerprint = cell.Fingerprint
	}
	if a.Name != cell.Experiment || a.Fingerprint != cell.Fingerprint {
		err := fmt.Errorf("campaign: cell %s: experiment returned artifact identity (%s, %s), want (%s, %s) — stamp Name and the config fingerprint (experiment.Fingerprint) in Run, or leave them empty",
			cell.ID(), a.Name, a.Fingerprint, cell.Experiment, cell.Fingerprint)
		opts.emitError(ctx, cell, err)
		return CellResult{}, err
	}
	if opts.Store != nil {
		if _, err := opts.Store.Put(a); err != nil {
			opts.emitError(ctx, cell, err)
			return CellResult{}, fmt.Errorf("campaign: cell %s: %w", cell.ID(), err)
		}
	}
	opts.emit(Event{Cell: cell, Phase: PhaseDone})
	return CellResult{Cell: cell, Artifact: a}, nil
}
