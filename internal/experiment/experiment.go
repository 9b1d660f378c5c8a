// Package experiment is the registry-driven engine behind the public
// experiment API: every workload of the paper's evaluation section is a
// named, discoverable Experiment that runs under a context and returns
// a self-describing, JSON-serializable Artifact.
//
// The design replaces the previous facade of ~40 free functions and the
// ad-hoc per-figure writers of the CLIs with three pieces:
//
//   - Experiment: a named unit of work with a ctx-first Run method;
//   - Artifact: its machine-consumable result (name, seed, config
//     fingerprint, wall time, trials used, payload table) with a stable
//     text rendering;
//   - the registry (Register/Lookup/All): the catalog the CLIs and the
//     public facade enumerate (`campaign -list`, `campaign -experiments fig8`).
//
// Every paper figure/table registers itself in catalog.go; external
// callers can Register additional experiments through the facade.
//
// Artifacts are also the unit of persistence: internal/store caches
// them under (name, config fingerprint) keys, and internal/campaign
// sweeps the registry's cross product with scenarios against that
// store — so Fingerprint below is not just provenance metadata but the
// cache identity that decides whether a run can be skipped.
package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"chipletqc/internal/eval"
	"chipletqc/internal/report"
)

// RunAndRender executes the named registry experiment under ctx and
// renders its artifact to w as text (or CSV when csv is set) — the
// shared core of the CLI figure modes (mcmsim -fig8/-fig9,
// benchrun -all).
func RunAndRender(ctx context.Context, name string, cfg eval.Config, w io.Writer, csv bool) error {
	e, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("experiment %q is not registered", name)
	}
	a, err := e.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if csv {
		return a.WriteCSV(w)
	}
	return a.WriteText(w)
}

// Experiment is one named, cancellable workload. Run must honour ctx
// (cancellation returns ctx.Err() promptly) and must be deterministic
// in cfg: the same config produces the same Artifact payload at any
// worker count.
type Experiment interface {
	// Name is the registry key, e.g. "fig8" or "table2".
	Name() string
	// Describe is a one-line human summary for listings.
	Describe() string
	// Run executes the workload under ctx at the scale cfg describes.
	Run(ctx context.Context, cfg eval.Config) (Artifact, error)
}

// runFunc is the result of one experiment body: the payload table plus
// the Monte Carlo trials the run scheduled (0 where not applicable).
type runFunc func(ctx context.Context, cfg eval.Config) (*report.Table, int, error)

// funcExperiment adapts a plain function to the Experiment interface,
// wrapping it with the Artifact bookkeeping (wall time, fingerprint).
type funcExperiment struct {
	name, desc string
	run        runFunc
}

// New builds an Experiment from a run function. The wrapper measures
// wall time, stamps the config fingerprint, and wraps errors with the
// experiment name.
func New(name, desc string, run runFunc) Experiment {
	if name == "" {
		panic("experiment: empty name")
	}
	return &funcExperiment{name: name, desc: desc, run: run}
}

func (e *funcExperiment) Name() string     { return e.name }
func (e *funcExperiment) Describe() string { return e.desc }

func (e *funcExperiment) Run(ctx context.Context, cfg eval.Config) (Artifact, error) {
	if err := ctx.Err(); err != nil {
		return Artifact{}, err
	}
	start := time.Now()
	tb, trials, err := e.run(ctx, cfg)
	if err != nil {
		return Artifact{}, fmt.Errorf("experiment %s: %w", e.name, err)
	}
	scn := cfg.ResolvedScenario()
	return Artifact{
		Name:                e.name,
		Description:         e.desc,
		Seed:                cfg.Seed,
		Scenario:            scn.Name,
		ScenarioFingerprint: scn.Fingerprint(),
		Fingerprint:         Fingerprint(cfg),
		WallSeconds:         time.Since(start).Seconds(),
		Trials:              trials,
		Payload:             tb,
	}, nil
}
