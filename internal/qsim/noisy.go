package qsim

import (
	"fmt"
	"math/rand"

	"chipletqc/internal/circuit"
	"chipletqc/internal/graph"
	"chipletqc/internal/noise"
)

// NoisyConfig parameterises Monte Carlo trajectory simulation of a
// compiled circuit under stochastic two-qubit gate errors. Each
// two-qubit gate fails independently with its coupling's assigned
// probability; a failure injects a uniformly random non-identity
// two-qubit Pauli on the gate's operands (a standard depolarising
// approximation of CR gate error).
//
// The simulator exists to validate the paper's figure of merit: the
// fidelity product of all two-qubit gates (ESP) should track the
// empirical probability that no gate failed, and — for circuits whose
// outcome detects any injected Pauli — the measured success rate.
type NoisyConfig struct {
	// Errors supplies per-coupling failure probabilities; compiled
	// circuits index it by their physical operand pairs.
	Errors noise.Assignment
	// Trajectories is the number of Monte Carlo runs.
	Trajectories int
	// Seed drives failure sampling.
	Seed int64
}

// NoisyResult summarises a trajectory campaign.
type NoisyResult struct {
	Trajectories int
	// CleanRuns counts trajectories in which no gate failed.
	CleanRuns int
	// SuccessRuns counts trajectories whose final state passed the
	// caller's success predicate.
	SuccessRuns int
}

// CleanFraction estimates P(no gate fails) — the quantity the ESP
// fidelity product approximates.
func (r NoisyResult) CleanFraction() float64 {
	if r.Trajectories == 0 {
		return 0
	}
	return float64(r.CleanRuns) / float64(r.Trajectories)
}

// SuccessFraction estimates the application success probability.
func (r NoisyResult) SuccessFraction() float64 {
	if r.Trajectories == 0 {
		return 0
	}
	return float64(r.SuccessRuns) / float64(r.Trajectories)
}

// pauliOps enumerates the 15 non-identity two-qubit Paulis as pairs of
// single-qubit opcodes (the zero Op = identity on that operand).
var pauliOps = [15][2]circuit.Op{
	{0, circuit.OpX}, {0, circuit.OpY}, {0, circuit.OpZ},
	{circuit.OpX, 0}, {circuit.OpX, circuit.OpX}, {circuit.OpX, circuit.OpY}, {circuit.OpX, circuit.OpZ},
	{circuit.OpY, 0}, {circuit.OpY, circuit.OpX}, {circuit.OpY, circuit.OpY}, {circuit.OpY, circuit.OpZ},
	{circuit.OpZ, 0}, {circuit.OpZ, circuit.OpX}, {circuit.OpZ, circuit.OpY}, {circuit.OpZ, circuit.OpZ},
}

// RunNoisy executes the circuit cfg.Trajectories times under stochastic
// gate errors. After each trajectory the success predicate is evaluated
// on the final state; pass nil to count only clean runs. The circuit
// must be native (1q gates + CX) and small enough to simulate.
func RunNoisy(c *circuit.Circuit, cfg NoisyConfig, success func(*State) bool) (NoisyResult, error) {
	if !circuit.IsNative(c) {
		return NoisyResult{}, fmt.Errorf("qsim: noisy simulation requires a native circuit")
	}
	if c.NumQubits > MaxQubits {
		return NoisyResult{}, fmt.Errorf("qsim: %d qubits exceeds the simulable limit %d",
			c.NumQubits, MaxQubits)
	}
	if cfg.Trajectories <= 0 {
		return NoisyResult{}, fmt.Errorf("qsim: need at least one trajectory")
	}
	res := NoisyResult{Trajectories: cfg.Trajectories}
	for trial := 0; trial < cfg.Trajectories; trial++ {
		r := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7349))
		s := NewState(c.NumQubits)
		clean := true
		for _, g := range c.Gates {
			s.Apply(g)
			if !g.IsTwoQubit() {
				continue
			}
			q := g.Qubits()
			p := cfg.Errors.Err[graph.NewEdge(int(q[0]), int(q[1]))]
			if p <= 0 || r.Float64() >= p {
				continue
			}
			clean = false
			for k, op := range pauliOps[r.Intn(len(pauliOps))] {
				if op != 0 {
					s.applyPauli(op, int(q[k]))
				}
			}
		}
		if clean {
			res.CleanRuns++
			if success == nil || success(s) {
				res.SuccessRuns++
			}
			continue
		}
		if success != nil && success(s) {
			res.SuccessRuns++
		}
	}
	return res, nil
}
