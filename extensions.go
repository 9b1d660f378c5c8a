package chipletqc

// Extension features beyond the paper's core evaluation, implementing
// the directions its Sections IV-B, V, and VIII name explicitly:
// post-fabrication laser tuning, uneven frequency spacing, link- and
// error-aware compilation, correlated-error isolation, and OpenQASM
// interoperability.

import (
	"context"
	"io"

	"chipletqc/internal/analytic"
	"chipletqc/internal/circuit"
	"chipletqc/internal/compiler"
	"chipletqc/internal/ecc"
	"chipletqc/internal/fab"
	"chipletqc/internal/freqalloc"
	"chipletqc/internal/graph"
	"chipletqc/internal/qsim"
	"chipletqc/internal/rays"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

// Laser tuning (Section III-C): two-stage fabrication.
type (
	// TunedFabModel models post-fabrication laser annealing: raw spread
	// first, with out-of-threshold qubits re-targeted to the residual
	// spread.
	TunedFabModel = fab.TunedModel
	// TuningStats records the per-device laser-tuning effort.
	TuningStats = fab.TuningStats
)

// DefaultTunedFabModel tunes every qubit from the as-fabricated spread
// (0.1323 GHz) down to laser-tuned precision (0.014 GHz).
func DefaultTunedFabModel() TunedFabModel { return fab.DefaultTunedModel() }

// Uneven frequency spacing (Section IV-B future work).

// AsymmetricFreqPlan builds a frequency plan with independent F0->F1 and
// F1->F2 spacings.
func AsymmetricFreqPlan(base, stepLow, stepHigh float64) FreqPlan {
	return topo.AsymmetricPlan(base, stepLow, stepHigh)
}

// SimulateYieldWithPlan estimates collision-free yield under an explicit
// frequency plan (for asymmetric-spacing explorations). All YieldOptions
// knobs apply, including Workers; opts.Step is ignored in favour of the
// plan's spacing.
func SimulateYieldWithPlan(ctx context.Context, d *Device, plan FreqPlan, opts YieldOptions) (YieldResult, error) {
	opts.Step = nil
	cfg, err := yieldConfigFromOptions(opts)
	if err != nil {
		return YieldResult{}, err
	}
	cfg.Model.Plan = plan
	return yield.Simulate(ctx, d, cfg)
}

// Link/error-aware compilation (Section VIII future work).
type (
	// CompileOptions tunes routing; the zero value is the baseline.
	CompileOptions = compiler.Options
	// EdgeCost assigns per-coupling routing costs.
	EdgeCost = graph.WeightFunc
)

// CompileWithOptions compiles with explicit routing options.
func CompileWithOptions(c *Circuit, d *Device, opts CompileOptions) (*CompileResult, error) {
	return compiler.CompileWithOptions(c, d, opts)
}

// LinkAwareCost charges inter-chip links `penalty` times an on-chip
// coupling during routing.
func LinkAwareCost(d *Device, penalty float64) EdgeCost {
	return compiler.LinkAwareCost(d, penalty)
}

// ErrorAwareCost routes by -log(1-e) so minimum-cost routes are
// maximum-fidelity routes.
func ErrorAwareCost(a ErrorAssignment) EdgeCost {
	return compiler.ErrorAwareCost(a)
}

// Correlated-error isolation (Section V).
type (
	// RayConfig parameterises a correlated-error impact campaign.
	RayConfig = rays.Config
	// RayResult summarises one campaign.
	RayResult = rays.Result
)

// DefaultRayConfig simulates 1000 impacts with a 6-qubit-pitch radius.
func DefaultRayConfig(seed int64) RayConfig { return rays.DefaultConfig(seed) }

// SimulateRays runs a correlated-error impact campaign on a device.
func SimulateRays(d *Device, cfg RayConfig) RayResult { return rays.Simulate(d, cfg) }

// CompareRays runs the same campaign on an MCM and its monolithic twin,
// returning the isolation factor (>1 means the MCM confines damage).
func CompareRays(mcmDev, mono *Device, cfg RayConfig) (RayResult, RayResult, float64) {
	return rays.Compare(mcmDev, mono, cfg)
}

// Analytic yield model and frequency-allocation search.

// AnalyticYield estimates a device's collision-free yield in closed
// form: exact for each qubit pair's Table I criteria, and independent
// across pairs — a fast, slightly conservative stand-in for the Monte
// Carlo simulation.
func AnalyticYield(d *Device, plan FreqPlan, sigma float64) float64 {
	return analytic.DeviceYield(d, plan, sigma, scenario.Paper().Params)
}

// AnalyticYieldFor is AnalyticYield under the named registered
// scenario's collision thresholds, so closed-form estimates stay
// comparable to Monte Carlo runs of the same device world.
func AnalyticYieldFor(scenarioName string, d *Device, plan FreqPlan, sigma float64) (float64, error) {
	s, err := scenario.Lookup(scenarioName)
	if err != nil {
		return 0, err
	}
	return analytic.DeviceYield(d, plan, sigma, s.Params), nil
}

// AllocationResult is the outcome of a frequency-allocation search.
type AllocationResult = freqalloc.Result

// OptimizeAllocation anneals per-qubit frequency-class assignments to
// maximise the analytic yield, starting from the device's pattern.
// It provides an independent check that the heavy-hex three-frequency
// pattern is near-optimal.
func OptimizeAllocation(d *Device, sigma float64, iterations int, seed int64) AllocationResult {
	cfg := freqalloc.DefaultConfig(seed)
	cfg.Params = scenario.Paper().Params
	cfg.Sigma = sigma
	if iterations > 0 {
		cfg.Iterations = iterations
	}
	return freqalloc.Optimize(d, cfg)
}

// SearchSteps sweeps symmetric and asymmetric step pairs analytically
// and returns the yield-maximising spacing.
func SearchSteps(d *Device, sigma float64, steps []float64) (bestLow, bestHigh, bestYield float64) {
	return freqalloc.StepSearch(d, sigma, scenario.Paper().Params, steps)
}

// Error correction thresholds (Sections II-B and VIII).
type (
	// ECCReport compares a device's realised errors to a code threshold.
	ECCReport = ecc.Report
	// ChipDistance is a per-chip adaptive code-distance recommendation.
	ChipDistance = ecc.ChipDistance
)

// HeavyHexECCThreshold is the hybrid surface/Bacon-Shor threshold on the
// heavy-hexagon lattice (0.45%).
const HeavyHexECCThreshold = ecc.HeavyHexThreshold

// AnalyzeECC evaluates a device's error assignment against a code
// threshold.
func AnalyzeECC(d *Device, a ErrorAssignment, threshold float64) ECCReport {
	return ecc.Analyze(d, a, threshold)
}

// RecommendCodeDistance returns the smallest odd code distance reaching
// the target logical error rate at physical error p under threshold pth.
func RecommendCodeDistance(p, pth, target float64) (int, error) {
	return ecc.RecommendDistance(p, pth, target)
}

// AdaptiveCodeDistances recommends a code distance per chip of an MCM
// (the paper's dynamic-ECC future work).
func AdaptiveCodeDistances(d *Device, a ErrorAssignment, pth, target float64) []ChipDistance {
	return ecc.AdaptiveDistances(d, a, pth, target)
}

// Noisy trajectory simulation (ESP-metric validation).
type (
	// NoisyConfig parameterises Monte Carlo Pauli-error trajectories.
	NoisyConfig = qsim.NoisyConfig
	// NoisyResult summarises a trajectory campaign.
	NoisyResult = qsim.NoisyResult
)

// SimulateNoisy runs a native circuit under stochastic two-qubit gate
// errors; the clean-run fraction empirically validates the fidelity-
// product (ESP) figure of merit. Limited to simulable widths.
func SimulateNoisy(c *Circuit, cfg NoisyConfig, success func(*State) bool) (NoisyResult, error) {
	return qsim.RunNoisy(c, cfg, success)
}

// OpenQASM interoperability.

// WriteQASM serialises a circuit as OpenQASM 2.0.
func WriteQASM(c *Circuit, w io.Writer) error { return circuit.ToQASM(c, w) }

// QASM returns a circuit's OpenQASM 2.0 text.
func QASM(c *Circuit) string { return circuit.QASMString(c) }

// ReadQASM parses the OpenQASM 2.0 subset emitted by WriteQASM.
func ReadQASM(r io.Reader) (*Circuit, error) { return circuit.FromQASM(r) }
