package eval

import (
	"math"

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
	s := newLogSums(x, [][]float64{x.logTable(a)})
	for _, g := range r.Compiled.Gates {
		if g.IsTwoQubit() {
			q := g.Qubits()
			s.add(int(q[0]), int(q[1]))
		}
	}
	return s.sums[0]
}

// Fidelity returns the fidelity product itself; prefer LogFidelity for
// comparisons between deep circuits.
func Fidelity(r *compiler.Result, a noise.Assignment) float64 {
	return math.Exp(LogFidelity(r, a))
}

// edgeIndex numbers a set of couplings densely, in the order given. It
// lets the Fig. 10 path resolve each routed gate's coupling once for
// all instances and each assignment's errors once per assignment,
// instead of one map lookup and one log per gate per assignment.
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

// logTable returns ln(1 - e) per indexed coupling under assignment a.
func (x *edgeIndex) logTable(a noise.Assignment) []float64 {
	t := make([]float64, len(x.edges))
	for i, e := range x.edges {
		t[i] = logSuccess(a.Err[e])
	}
	return t
}

// logTableOf returns ln(1 - e) per coupling for errors already aligned
// with an edgeIndex's order.
func logTableOf(errs []float64) []float64 {
	t := make([]float64, len(errs))
	for i, e := range errs {
		t[i] = logSuccess(e)
	}
	return t
}

// logSuccess returns ln(1 - e), -Inf where e >= 1: the value the
// per-gate formula computes for a coupling with error e.
func logSuccess(e float64) float64 {
	if e >= 1 {
		return math.Inf(-1)
	}
	return math.Log1p(-e)
}

// logSums accumulates one log fidelity per ln(1 - e) table, coupling
// by coupling in gate order, so a routing walk can score every
// instance without building the compiled circuit. Each sum adds its
// table's entries in order and stops at the first -Inf; a sum reaches
// -Inf no other way, since every finite entry is at least
// ln(2^-53). A coupling outside the index contributes ln(1 - 0) = -0,
// which leaves any sum unchanged, so it is skipped. Same values, same
// order: each sum is bit-identical to summing the per-gate formula.
type logSums struct {
	x      *edgeIndex
	tables [][]float64
	sums   []float64
}

func newLogSums(x *edgeIndex, tables [][]float64) *logSums {
	return &logSums{x: x, tables: tables, sums: make([]float64, len(tables))}
}

// add accumulates the gate on coupling (u, v) into every sum.
func (s *logSums) add(u, v int) {
	if len(s.tables) == 0 {
		return
	}
	id := s.x.id(u, v)
	if id < 0 {
		return
	}
	for i, t := range s.tables {
		switch l := t[id]; {
		case math.IsInf(s.sums[i], -1):
		case math.IsInf(l, -1):
			s.sums[i] = l
		default:
			s.sums[i] += l
		}
	}
}
