// Package campaign drives scenario×experiment sweeps as one job: a
// Plan names sets of experiments, device scenarios, and config
// overrides; Expand turns it into a deterministic ordered grid of
// cells; Run executes the cells concurrently through internal/runner
// and persists every resulting Artifact through the store.Store
// interface — any backend passing the storetest conformance suite
// (filesystem, in-memory, or third-party) plugs in unchanged.
//
// The store is what turns a sweep into a campaign. Each cell's store
// key is its experiment name plus its config fingerprint
// (experiment.Fingerprint, which folds in the seed, every trial knob,
// and the scenario's own fingerprint), so an identical cell is a cache
// hit that returns the stored artifact without re-simulating. An
// interrupted campaign therefore resumes for free — re-running the same
// plan executes only the missing cells — and a warm store replays a
// whole campaign with zero Monte Carlo work.
//
// Cells are independent, so a campaign also shards: Shard{i, n} keeps
// every n-th cell of the grid starting at i, a disjoint and exhaustive
// partition that lets independent processes (or machines pointed at a
// shared store directory) split one campaign and arrive at the same
// store contents as an unsharded run.
package campaign

import (
	"fmt"
	"strings"

	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/scenario"
	"chipletqc/internal/store"
	"chipletqc/internal/yield"
)

// Override is one named set of per-run adjustments layered over the
// scenario-derived base config of every cell it generates. The zero
// value changes nothing; a Plan with no overrides runs one implicit
// zero override per (experiment, scenario) pair.
//
// Every field participates in the config fingerprint (via the resolved
// eval.Config), so cells generated by different overrides never share a
// store key unless the overrides are equivalent.
type Override struct {
	// Label names the override in cell IDs and listings. Overrides in
	// one plan must have distinct labels; the implicit default is "".
	Label string `json:"label,omitempty"`
	// Seed replaces the plan seed for this override's cells.
	Seed *int64 `json:"seed,omitempty"`
	// PolicyOverride layers the adaptive stop and the estimator over
	// the scenario's trial policy with the CLI sentinel semantics (0
	// inherits, positive overrides, negative resets; "none" forces
	// unlabelled plain counting). Its fields marshal inline. Rare-event
	// cells configured this way fingerprint — and therefore cache —
	// separately from their plain counterparts.
	yield.PolicyOverride
	// MonoBatch / ChipletBatch / MaxQubits replace the base config's
	// batch sizes and size bound when positive; 0 inherits.
	MonoBatch    int `json:"mono_batch,omitempty"`
	ChipletBatch int `json:"chiplet_batch,omitempty"`
	MaxQubits    int `json:"max_qubits,omitempty"`
}

// apply layers the override onto a scenario-derived base config.
func (o Override) apply(cfg eval.Config, planSeed int64) (eval.Config, error) {
	cfg.Seed = planSeed
	if o.Seed != nil {
		cfg.Seed = *o.Seed
	}
	var err error
	if cfg.Policy, err = o.PolicyOverride.Apply(cfg.Policy); err != nil {
		return cfg, err
	}
	if o.MonoBatch > 0 {
		cfg.MonoBatch = o.MonoBatch
	}
	if o.ChipletBatch > 0 {
		cfg.ChipletBatch = o.ChipletBatch
	}
	if o.MaxQubits > 0 {
		cfg.MaxQubits = o.MaxQubits
	}
	return cfg, nil
}

// Plan describes a campaign: the cross product of experiment names,
// scenario names, and config overrides, all resolved against the
// registries at expansion time.
type Plan struct {
	// Experiments are registry experiment names; empty means every
	// registered experiment in paper order.
	Experiments []string `json:"experiments"`
	// Scenarios are registry scenario names; empty means just "paper".
	Scenarios []string `json:"scenarios"`
	// Overrides are the config variants to run each (experiment,
	// scenario) pair under; empty means one unmodified run.
	Overrides []Override `json:"overrides,omitempty"`
	// Seed is the base RNG seed for every cell (overrides may replace
	// it per variant).
	Seed int64 `json:"seed"`
	// Quick selects the reduced smoke-test scale (eval.QuickConfigFor)
	// instead of full paper scale as the base config.
	Quick bool `json:"quick,omitempty"`
}

// Cell is one unit of a campaign: an experiment run under a scenario
// and an override, with its resolved config and store identity.
type Cell struct {
	// Index is the cell's position in the full expanded grid — the
	// basis of shard partitioning, stable for a given plan.
	Index int `json:"index"`
	// Experiment, Scenario, and Override name the cell's coordinates.
	Experiment string `json:"experiment"`
	Scenario   string `json:"scenario"`
	Override   string `json:"override,omitempty"`
	// Seed is the resolved RNG seed the cell runs with.
	Seed int64 `json:"seed"`
	// Fingerprint is the resolved config's fingerprint — together with
	// Experiment it is the cell's store key.
	Fingerprint string `json:"config_fingerprint"`
	// Config is the fully resolved experiment config the cell executes.
	// It is identity, not serialisation: the fingerprint stands in for
	// it in JSON output.
	Config eval.Config `json:"-"`
}

// ID renders the cell's coordinates for logs and errors, e.g.
// "fig8@future-fab" or "fig4@paper+hi-res".
func (c Cell) ID() string {
	id := c.Experiment + "@" + c.Scenario
	if c.Override != "" {
		id += "+" + c.Override
	}
	return id
}

// Key returns the cell's artifact-store key.
func (c Cell) Key() string { return store.Key(c.Experiment, c.Fingerprint) }

// Expand validates the plan against the experiment and scenario
// registries and returns the full ordered cell grid: experiments
// outermost, then scenarios, then overrides, each set in the order the
// plan lists it. The order is deterministic for a given plan and
// registry state, which is what makes shard partitions reproducible
// across processes.
func Expand(p Plan) ([]Cell, error) {
	exps := p.Experiments
	if len(exps) == 0 {
		exps = experiment.Names()
	}
	seenExp := map[string]bool{}
	for _, name := range exps {
		if _, ok := experiment.Lookup(name); !ok {
			return nil, fmt.Errorf("campaign: unknown experiment %q (known: %s)",
				name, strings.Join(experiment.Names(), ", "))
		}
		// A duplicate would expand to two cells with one store key —
		// doubled compute racing to the same record.
		if seenExp[name] {
			return nil, fmt.Errorf("campaign: duplicate experiment %q in plan", name)
		}
		seenExp[name] = true
	}
	scns := p.Scenarios
	if len(scns) == 0 {
		scns = []string{scenario.PaperName}
	}
	resolved := make([]scenario.Scenario, len(scns))
	seenScn := map[string]bool{}
	for i, name := range scns {
		s, err := scenario.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		if seenScn[name] {
			return nil, fmt.Errorf("campaign: duplicate scenario %q in plan", name)
		}
		seenScn[name] = true
		resolved[i] = s
	}
	overrides := p.Overrides
	if len(overrides) == 0 {
		overrides = []Override{{}}
	}
	seen := map[string]bool{}
	for _, o := range overrides {
		if seen[o.Label] {
			return nil, fmt.Errorf("campaign: duplicate override label %q", o.Label)
		}
		seen[o.Label] = true
	}

	cells := make([]Cell, 0, len(exps)*len(scns)*len(overrides))
	for _, exp := range exps {
		for si, scn := range scns {
			for _, o := range overrides {
				base := eval.ConfigFor(resolved[si], p.Seed)
				if p.Quick {
					base = eval.QuickConfigFor(resolved[si], p.Seed)
				}
				// A bad override fails at expansion, not mid-campaign
				// inside some cell's experiment run.
				cfg, err := o.apply(base, p.Seed)
				if err != nil {
					return nil, fmt.Errorf("campaign: override %q: %w", o.Label, err)
				}
				cells = append(cells, Cell{
					Index:       len(cells),
					Experiment:  exp,
					Scenario:    scn,
					Override:    o.Label,
					Seed:        cfg.Seed,
					Fingerprint: experiment.Fingerprint(cfg),
					Config:      cfg,
				})
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: plan expands to no cells")
	}
	return cells, nil
}
