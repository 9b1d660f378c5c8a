// Package scenario defines pluggable, registrable device scenarios: a
// Scenario is everything that pins down one simulated device world —
// the chiplet topology catalog, the fabrication process, the Table I
// collision thresholds, the inter-chip link and on-chip detuning error
// models, the MCM assembly policy, and the Monte Carlo trial policy.
//
// Before this package the paper's device model was welded into the
// library: collision.DefaultParams(), fab.DefaultModel(), and
// noise.DefaultLinkModel() were independently re-constructed in every
// consumer, so exploring any non-paper design point meant editing
// library code. Now every experiment pipeline (internal/eval, the
// experiment registry, the facade, and all four CLIs) draws its device
// world from one Scenario value, and the paper's defaults are just the
// registered "paper" scenario — bit-identical to the pre-scenario
// behaviour.
//
// Scenarios are named, self-describing, and fingerprinted: Fingerprint
// hashes every determinism-relevant field, so an experiment Artifact
// recording (scenario name, scenario fingerprint) pins the device world
// its payload was computed under. The registry (Register/Lookup/All)
// mirrors internal/experiment: presets register at init time and
// callers add their own through the facade.
//
// Scenario names are one axis of a campaign plan (internal/campaign):
// a sweep across scenarios expands to one cell per (experiment,
// scenario, override) triple, and because the scenario fingerprint is
// folded into each cell's config fingerprint, the artifact store
// caches different device worlds under different keys automatically.
package scenario

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"chipletqc/internal/assembly"
	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/noise"
	"chipletqc/internal/sampling"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// DetuningSpec describes how a scenario builds its empirical on-chip
// gate error model: a synthetic calibration run on a reference device,
// binned by detuning. It is plain data (no closures) so it can be
// validated and fingerprinted like every other scenario field.
type DetuningSpec struct {
	// Calib parameterises the synthetic calibration-data generator.
	Calib noise.CalibConfig
	// Device is the reference device the calibration run fabricates
	// (paper: the Washington-class 127-qubit heavy-hex member).
	Device topo.ChipSpec
	// FreqSpread is the fabrication frequency spread of the reference
	// device in GHz (paper: 0.1, the deployed-device spread).
	FreqSpread float64
	// Cycles is the number of calibration cycles averaged per coupling.
	Cycles int
	// BinWidth is the detuning bin width in GHz (paper: 0.1, Fig. 7).
	BinWidth float64
}

// Build runs the calibration and bins it into the detuning model. The
// result depends only on the spec and the seed.
func (d DetuningSpec) Build(seed int64) *noise.DetuningModel {
	pts := noise.CalibrationRun(d.Device, d.FreqSpread, d.Cycles, seed, d.Calib)
	return noise.NewDetuningModel(pts, d.BinWidth)
}

// Validate reports the first unphysical detuning-spec value.
func (d DetuningSpec) Validate() error {
	if err := d.Device.Validate(); err != nil {
		return fmt.Errorf("detuning device: %w", err)
	}
	if d.FreqSpread <= 0 {
		return fmt.Errorf("detuning freq spread %g is not positive", d.FreqSpread)
	}
	if d.Cycles < 1 {
		return fmt.Errorf("detuning cycles %d < 1", d.Cycles)
	}
	if d.BinWidth <= 0 {
		return fmt.Errorf("detuning bin width %g is not positive", d.BinWidth)
	}
	return nil
}

// AssemblyPolicy is a scenario's MCM stitching policy (Section VII-B).
type AssemblyPolicy struct {
	// MaxReshuffles is the placement shuffle budget per candidate MCM
	// (paper: 100).
	MaxReshuffles int
	// BondFailureScale scales the per-bump failure probability; 1 is
	// nominal, 100 is the paper's sensitivity analysis.
	BondFailureScale float64
}

// TrialPolicy is a scenario's default Monte Carlo budget: batch sizes
// for the fixed mode plus the adaptive-mode precision/budget knobs.
// Experiment configs start from these and may be overridden per run
// (CLI flags, eval.Config fields).
type TrialPolicy struct {
	MonoBatch    int     // monolithic Monte Carlo batch (paper: 10^4)
	ChipletBatch int     // chiplet fabrication batch (paper: 10^4)
	Precision    float64 // adaptive 95% CI half-width target (0 = fixed batch)
	MaxTrials    int     // adaptive budget cap (0 = batch size)

	// RelPrecision is the adaptive mode's relative target: stop once
	// the CI half-width <= RelPrecision x the point estimate (0 =
	// disabled). This is the stopping rule that works for deep-low
	// yields, where any absolute target stops before the event has
	// been observed.
	RelPrecision float64
	// Sampling selects the scenario's default yield estimator (see
	// internal/sampling). The zero spec keeps unlabelled plain
	// counting; rare-event scenarios default to importance
	// sampling so campaign cells get the variance reduction without
	// per-run flags.
	Sampling sampling.Spec
}

// Scenario bundles everything that defines a simulated device world.
// Scenarios are values: copying one is cheap and mutation-safe apart
// from the shared Catalog backing array, which consumers treat as
// read-only.
type Scenario struct {
	// Name is the registry key, e.g. "paper" or "future-fab".
	Name string
	// Description is a one-line human summary for listings.
	Description string

	// Catalog is the chiplet topology family the scenario evaluates
	// (paper: the nine heavy-hex sizes 10..250).
	Catalog []topo.ChipletSize
	// Fab is the fabrication process: frequency plan + precision.
	Fab fab.Model
	// Params are the frequency-collision thresholds (Table I).
	Params collision.Params
	// Link is the inter-chip link error distribution.
	Link noise.LinkModel
	// Detuning describes the empirical on-chip gate error model.
	Detuning DetuningSpec
	// Assembly is the MCM stitching policy.
	Assembly AssemblyPolicy
	// Trials is the default Monte Carlo budget.
	Trials TrialPolicy

	// Topology, when non-nil, pins the scenario to one generated device
	// (internal/generate): single-device experiments (genyield) build it
	// instead of walking the catalog, and its canonical token is folded
	// into the fingerprint. nil keeps the hand-written preset behaviour
	// and leaves historical fingerprints untouched.
	Topology *topo.LatticeSpec
}

// Validate reports the first invalid scenario field.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if s.Description == "" {
		return fmt.Errorf("scenario %q: empty description", s.Name)
	}
	if len(s.Catalog) == 0 {
		return fmt.Errorf("scenario %q: empty chiplet catalog", s.Name)
	}
	for _, c := range s.Catalog {
		if err := c.Spec.Validate(); err != nil {
			return fmt.Errorf("scenario %q: catalog chiplet %d: %w", s.Name, c.Qubits, err)
		}
		if got := c.Spec.Qubits(); got != c.Qubits {
			return fmt.Errorf("scenario %q: catalog chiplet labelled %dq but spec has %dq",
				s.Name, c.Qubits, got)
		}
	}
	if err := s.Fab.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Params.Anharmonicity >= 0 {
		return fmt.Errorf("scenario %q: anharmonicity %g must be negative for transmons",
			s.Name, s.Params.Anharmonicity)
	}
	for _, hw := range []struct {
		name string
		v    float64
	}{
		{"T1", s.Params.T1}, {"T2", s.Params.T2}, {"T3", s.Params.T3},
		{"T5", s.Params.T5}, {"T6", s.Params.T6}, {"T7", s.Params.T7},
	} {
		if hw.v < 0 {
			return fmt.Errorf("scenario %q: collision half-width %s = %g is negative",
				s.Name, hw.name, hw.v)
		}
	}
	if s.Link.Sigma < 0 {
		return fmt.Errorf("scenario %q: link sigma %g is negative", s.Name, s.Link.Sigma)
	}
	if err := s.Detuning.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Assembly.MaxReshuffles < 0 {
		return fmt.Errorf("scenario %q: MaxReshuffles %d is negative", s.Name, s.Assembly.MaxReshuffles)
	}
	if s.Assembly.BondFailureScale < 0 {
		return fmt.Errorf("scenario %q: BondFailureScale %g is negative", s.Name, s.Assembly.BondFailureScale)
	}
	if s.Trials.MonoBatch < 1 || s.Trials.ChipletBatch < 1 {
		return fmt.Errorf("scenario %q: trial batches (%d mono, %d chiplet) must be positive",
			s.Name, s.Trials.MonoBatch, s.Trials.ChipletBatch)
	}
	if s.Trials.Precision < 0 || s.Trials.MaxTrials < 0 {
		return fmt.Errorf("scenario %q: negative trial policy (precision %g, max trials %d)",
			s.Name, s.Trials.Precision, s.Trials.MaxTrials)
	}
	if s.Trials.RelPrecision < 0 {
		return fmt.Errorf("scenario %q: negative relative precision %g",
			s.Name, s.Trials.RelPrecision)
	}
	if err := s.Trials.Sampling.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Topology != nil {
		if err := s.Topology.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// Fingerprint hashes every determinism-relevant scenario field into a
// short stable token. Two scenarios with equal fingerprints produce
// bit-identical experiment results at equal seeds and scale; the Name
// and Description are deliberately excluded so a rename never masks (or
// fakes) a device-world change.
func (s Scenario) Fingerprint() string {
	var sb strings.Builder
	sb.WriteString("catalog=")
	for _, c := range s.Catalog {
		fmt.Fprintf(&sb, "%d:%dx%d,", c.Qubits, c.Spec.DenseRows, c.Spec.Width)
	}
	fmt.Fprintf(&sb, ";fab=%g/%g/%g/%g;", s.Fab.Plan.Base, s.Fab.Plan.Step, s.Fab.Plan.StepHigh, s.Fab.Sigma)
	fmt.Fprintf(&sb, "params=%+v;", s.Params)
	fmt.Fprintf(&sb, "link=%g/%g/%g/%g;", s.Link.Mu, s.Link.Sigma, s.Link.Floor, s.Link.Ceil)
	fmt.Fprintf(&sb, "det=%+v;", s.Detuning)
	fmt.Fprintf(&sb, "asm=%d/%g;", s.Assembly.MaxReshuffles, s.Assembly.BondFailureScale)
	fmt.Fprintf(&sb, "trials=%d/%d/%g/%d;", s.Trials.MonoBatch, s.Trials.ChipletBatch,
		s.Trials.Precision, s.Trials.MaxTrials)
	// Post-seed trial-policy extensions fold in only when set, so every
	// scenario fingerprint minted before they existed is unchanged.
	if s.Trials.RelPrecision != 0 {
		fmt.Fprintf(&sb, "relprec=%g;", s.Trials.RelPrecision)
	}
	if sp := s.Trials.Sampling.String(); sp != "" {
		fmt.Fprintf(&sb, "sampling=%s;", sp)
	}
	if s.Topology != nil {
		fmt.Fprintf(&sb, "topology=%s;", s.Topology.Canonical())
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return fmt.Sprintf("%x", sum[:6])
}

// DetuningModel builds the scenario's on-chip error model from seed.
func (s Scenario) DetuningModel(seed int64) *noise.DetuningModel {
	return s.Detuning.Build(seed)
}

// SpecForQubits looks up the scenario catalog chiplet with exactly q
// qubits, erroring with the known sizes otherwise.
func (s Scenario) SpecForQubits(q int) (topo.ChipSpec, error) {
	sizes := make([]string, 0, len(s.Catalog))
	for _, c := range s.Catalog {
		if c.Qubits == q {
			return c.Spec, nil
		}
		sizes = append(sizes, fmt.Sprint(c.Qubits))
	}
	return topo.ChipSpec{}, fmt.Errorf("scenario %q has no %d-qubit chiplet (catalog: %s)",
		s.Name, q, strings.Join(sizes, ", "))
}

// CollisionFree evaluates the scenario's collision criteria on a device
// with realised frequencies f.
func (s Scenario) CollisionFree(d *topo.Device, f []float64) bool {
	return collision.NewChecker(d, s.Params).Free(f)
}

// YieldConfig assembles a yield simulation configuration for the
// scenario's device world: fabrication model, collision thresholds, and
// chiplet catalog, with the given batch and seed. Adaptive-mode
// defaults come from the trial policy; callers override per run.
func (s Scenario) YieldConfig(batch int, seed int64) yield.Config {
	return yield.Config{
		Batch:        batch,
		Model:        s.Fab,
		Params:       s.Params,
		Catalog:      s.Catalog,
		Seed:         seed,
		Precision:    s.Trials.Precision,
		RelPrecision: s.Trials.RelPrecision,
		MaxTrials:    s.Trials.MaxTrials,
		Sampling:     s.Trials.Sampling,
	}
}

// BatchConfig assembles a chiplet fabrication configuration. The
// detuning model is passed in (rather than built here) so one resolved
// model is shared across the fan-out of a whole experiment.
func (s Scenario) BatchConfig(seed int64, det *noise.DetuningModel, workers int) assembly.BatchConfig {
	if det == nil {
		det = s.DetuningModel(seed)
	}
	return assembly.BatchConfig{
		Fab:     s.Fab,
		Params:  s.Params,
		Det:     det,
		Seed:    seed,
		Workers: workers,
	}
}

// AssembleConfig assembles an MCM stitching configuration under the
// scenario's assembly policy and link model.
func (s Scenario) AssembleConfig(seed int64) assembly.AssembleConfig {
	return assembly.AssembleConfig{
		MaxReshuffles:    s.Assembly.MaxReshuffles,
		BondFailureScale: s.Assembly.BondFailureScale,
		Link:             s.Link,
		Params:           s.Params,
		Seed:             seed,
	}
}
