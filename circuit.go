package chipletqc

import (
	"chipletqc/internal/circuit"
	"chipletqc/internal/eval"
	"chipletqc/internal/graph"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/qsim"
)

// Circuit-level re-exports: the gate IR, the benchmark generators, the
// statevector validation simulator, and the fidelity-product metric.
type (
	// Circuit is the ordered gate-list IR.
	Circuit = circuit.Circuit
	// Gate is one circuit operation: an opcode with inline operands,
	// read through Name(), Qubits() and Param.
	Gate = circuit.Gate
	// GateCounts bundles the Table II metrics (1q / 2q / 2q critical).
	GateCounts = circuit.Counts
	// State is a dense statevector (validation-scale, <= 24 qubits).
	State = qsim.State
	// ErrorAssignment maps device couplings to two-qubit infidelities.
	ErrorAssignment = noise.Assignment
	// Edge is an unordered qubit-pair coupling key.
	Edge = graph.Edge
)

// NewCircuit creates an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// DecomposeCircuit lowers a circuit to the native {1q, CX} basis.
func DecomposeCircuit(c *Circuit) *Circuit { return circuit.Decompose(c) }

// Simulate runs a circuit on a fresh |0...0> statevector. Intended for
// validation at small widths; it panics beyond 24 qubits.
func Simulate(c *Circuit) *State { return qsim.Run(c) }

// Benchmark generators, re-exported individually for direct use.

// BV builds a Bernstein-Vazirani circuit with the given hidden string.
func BV(n int, hidden uint64) *Circuit { return qbench.BV(n, hidden) }

// GHZ builds an n-qubit GHZ state preparation.
func GHZ(n int) *Circuit { return qbench.GHZ(n) }

// QAOA builds a depth-p MaxCut QAOA ansatz on a random near-3-regular
// graph.
func QAOA(n, rounds int, seed int64) *Circuit { return qbench.QAOA(n, rounds, seed) }

// Adder builds the Cuccaro ripple-carry adder computing b := a + b.
func Adder(n int, a, b uint64) *Circuit { return qbench.Adder(n, a, b) }

// Primacy builds a quantum-primacy style random circuit.
func Primacy(n, depth int, seed int64) *Circuit { return qbench.Primacy(n, depth, seed) }

// BitCode builds one round of bit-flip code syndrome measurement.
func BitCode(n int, dataPrep uint64) *Circuit { return qbench.BitCode(n, dataPrep) }

// TFIM builds a Trotterised 1-D transverse-field Ising simulation.
func TFIM(n, steps int, dt, j, h float64) *Circuit { return qbench.TFIM(n, steps, dt, j, h) }

// LogFidelity returns ln of the fidelity product over the compiled
// circuit's two-qubit gates under the given error assignment — the
// paper's ESP-style figure of merit (Section VII-B).
func LogFidelity(r *CompileResult, a ErrorAssignment) float64 {
	return eval.LogFidelity(r, a)
}

// FidelityProduct returns the fidelity product itself.
func FidelityProduct(r *CompileResult, a ErrorAssignment) float64 {
	return eval.Fidelity(r, a)
}
