// Package eval implements the paper's evaluation harness: the
// experiment drivers that regenerate every figure and table of the
// evaluation section (Figs. 1-10, Table II, Eq. 1) plus the ESP-style
// fidelity-product figure of merit of Section VII-B.
//
// # Entry points
//
// Each paper workload is a ctx-first function returning structured
// results — Fig1, Fig3b, Fig4, Fig6, Fig7, Fig8, Fig9, Fig9StateOfArt,
// Fig10, Table2, Eq1Example — all scaled by one Config. The Experiment
// registry in internal/experiment wraps these same functions into
// named, artifact-emitting units; new code should usually go through
// the registry (or internal/campaign for sweeps) and reserve the typed
// entry points for programmatic consumption of the result structs.
//
// # Config
//
// Config separates the device world from the run knobs. The world —
// chiplet catalog, fabrication model, Table I collision thresholds,
// link and detuning error models, assembly policy — comes entirely
// from the scenario (Config.Scenario, nil = the registered "paper"
// baseline). The remaining fields scale one run: Seed, the Monte Carlo
// batch sizes, Workers, the embedded yield.Policy (adaptive stop and
// estimator, seeded from the scenario's trial policy), the
// per-experiment registry knobs (Fig4MaxQubits, Fig6Batch, ...), and a
// streaming Progress hook. ConfigFor/QuickConfigFor build paper-scale
// and smoke-scale configs from a scenario.
//
// # Determinism
//
// Every Monte Carlo loop runs on internal/runner's (seed, trial
// index)-derived RNG streams, so results are bit-identical at any
// worker count; campaign-level seed offsets are centralised in
// seeds.go so independent pipelines never share streams. The golden
// tests (testdata/golden_*.json) pin Figs. 4/8/9/10 byte-for-byte at a
// fixed seed, and experiment.Fingerprint hashes every
// determinism-relevant Config field into the cache identity the
// artifact store keys on.
package eval
