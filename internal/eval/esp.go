package eval

import (
	"math"

	"chipletqc/internal/circuit"
	"chipletqc/internal/compiler"
	"chipletqc/internal/graph"
	"chipletqc/internal/noise"
)

// LogFidelity returns the natural log of the estimated probability of
// success of a compiled circuit: the sum of ln(1 - e) over every
// compiled two-qubit gate, with e the error of the coupling the gate
// executes on (0 for a coupling the assignment lacks). A gate on a
// coupling with e >= 1 makes the result -Inf. Working in log space
// keeps deep circuits representable.
func LogFidelity(r *compiler.Result, a noise.Assignment) float64 {
	x := newEdgeIndex(a.Edges())
	return sumLogs(x.gateEdges(r.Compiled), x.logTable(a))
}

// Fidelity returns the fidelity product itself; prefer LogFidelity for
// comparisons between deep circuits.
func Fidelity(r *compiler.Result, a noise.Assignment) float64 {
	return math.Exp(LogFidelity(r, a))
}

// edgeIndex numbers a set of couplings densely, in the order given. It
// lets the Fig. 10 path resolve each compiled gate's coupling once per
// compile and each assignment's errors once per assignment, instead of
// one map lookup and one log per gate per assignment.
type edgeIndex struct {
	edges []graph.Edge
	// up[u] lists the couplings (u, v) with v > u as (v, id) pairs.
	up [][]edgeRef
}

type edgeRef struct{ v, id int32 }

func newEdgeIndex(edges []graph.Edge) *edgeIndex {
	x := &edgeIndex{edges: edges}
	for i, e := range edges {
		for len(x.up) <= e.U {
			x.up = append(x.up, nil)
		}
		x.up[e.U] = append(x.up[e.U], edgeRef{int32(e.V), int32(i)})
	}
	return x
}

// id returns the index of coupling (u, v), or -1 when it is absent.
func (x *edgeIndex) id(u, v int) int32 {
	if u > v {
		u, v = v, u
	}
	if u >= len(x.up) {
		return -1
	}
	for _, r := range x.up[u] {
		if int(r.v) == v {
			return r.id
		}
	}
	return -1
}

// gateEdges returns the coupling index of every two-qubit gate of c in
// gate order, -1 for a gate on a coupling outside the index.
func (x *edgeIndex) gateEdges(c *circuit.Circuit) []int32 {
	ids := make([]int32, 0, len(c.Gates))
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			q := g.Qubits()
			ids = append(ids, x.id(int(q[0]), int(q[1])))
		}
	}
	return ids
}

// logTable returns ln(1 - e) per indexed coupling under assignment a,
// -Inf where e >= 1. Each entry is the value the per-gate formula
// computes for that coupling.
func (x *edgeIndex) logTable(a noise.Assignment) []float64 {
	t := make([]float64, len(x.edges))
	for i, e := range x.edges {
		if err := a.Err[e]; err >= 1 {
			t[i] = math.Inf(-1)
		} else {
			t[i] = math.Log1p(-err)
		}
	}
	return t
}

// sumLogs sums the table entries of the gate couplings ids in gate
// order, stopping at the first -Inf. A coupling outside the index (-1)
// contributes ln(1 - 0) = -0, which leaves any sum unchanged, so it is
// skipped. Same values, same order: the result is bit-identical to
// summing the per-gate formula.
func sumLogs(ids []int32, table []float64) float64 {
	var sum float64
	for _, id := range ids {
		if id < 0 {
			continue
		}
		l := table[id]
		if math.IsInf(l, -1) {
			return l
		}
		sum += l
	}
	return sum
}
