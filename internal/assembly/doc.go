// Package assembly implements the paper's MCM manufacturing pipeline
// (Sections V-C, V-D, VII-B): chiplet batch fabrication with
// known-good-die characterisation, error-sorted chiplet stitching with
// collision-driven reshuffles, and the C4 bump-bond assembly yield
// model.
//
// The pipeline has two stages. Fabricate simulates a wafer batch of
// one chiplet design under a fab.Model, applies KGD testing (Table I
// collision screening via internal/collision), and characterises each
// surviving die's frequencies and gate errors — yielding a Batch whose
// collision-free bin feeds assembly. An Assembler then stitches the
// bin into k×m multi-chip modules, one module per pull: chiplets are
// error-sorted so the best dies land first, candidate placements that
// create cross-chip collisions are reshuffled up to the assembly
// policy's budget, and every inter-chip link draws its infidelity from
// the scenario's link model. Assemble drains an Assembler and reports
// the run's Stats, including the analytic bump-bond survival;
// AssembleStats reports the same Stats without building the modules.
//
// A module's collision check is exact with only its seam criteria when
// its dies passed KGD under the same Table I params. Every criterion
// of the module device is either a seam criterion, whose qubits lie on
// two or more chips, or a criterion of one chip's own device, shifted
// by that chip's base qubit (the partition TestSeamCheckerPartitionsCriteria
// pins). A known-good die already passed the latter under those params,
// and a placement moves its frequencies as a whole, so only the seam
// criteria can fail. Fabricate records the params on the Batch, and the
// Assembler compiles collision.NewSeamChecker when they equal
// AssembleConfig.Params. Otherwise it checks every criterion: a batch
// screened under another scenario, or a Batch built by hand, which
// records none. A caller that edits Batch.Free keeps the seam check
// exact only if every die it adds passed the same KGD test.
//
// Both stages are ctx-first and deterministic. Fabricate fans out on
// internal/runner's worker pool, and a die's draws depend only on
// (seed, die index), so a batch is bit-identical at any worker count.
// Assembly is serial on one RNG that each module consumes after every
// module before it, so a caller that pulls only the best k modules gets
// exactly the first k of a full drain and never pays for the rest.
// AssembledMCM.ResampleLinks and EAvg re-draw and summarise link errors
// without disturbing that contract.
package assembly
