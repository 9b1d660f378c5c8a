// Package circuit provides the quantum circuit intermediate
// representation used by the benchmark generators, the compiler, and the
// application-fidelity evaluation: a flat gate list with dependency-aware
// depth and critical-path accounting matching the paper's Table II
// metrics (1q count / 2q count / 2q critical path).
package circuit

import (
	"fmt"
)

// Gate is one operation. Qubit operand order is significant: for CX the
// first operand is the control; for CCX the first two are controls.
type Gate struct {
	Name   string
	Qubits []int
	Param  float64 // rotation angle for R* gates, unused otherwise
}

// arity maps gate names to operand counts; parameterised gates are noted
// by hasParam.
var arity = map[string]struct {
	nq       int
	hasParam bool
}{
	"h":    {1, false},
	"x":    {1, false},
	"y":    {1, false},
	"z":    {1, false},
	"s":    {1, false},
	"sdg":  {1, false},
	"t":    {1, false},
	"tdg":  {1, false},
	"rx":   {1, true},
	"ry":   {1, true},
	"rz":   {1, true},
	"cx":   {2, false},
	"cz":   {2, false},
	"swap": {2, false},
	"ccx":  {3, false},
}

// IsTwoQubit reports whether the gate acts on exactly two qubits.
func (g Gate) IsTwoQubit() bool { return len(g.Qubits) == 2 }

// IsOneQubit reports whether the gate acts on exactly one qubit.
func (g Gate) IsOneQubit() bool { return len(g.Qubits) == 1 }

// String renders e.g. "cx q1,q4" or "rz(0.50) q3".
func (g Gate) String() string {
	s := g.Name
	if a, ok := arity[g.Name]; ok && a.hasParam {
		s = fmt.Sprintf("%s(%.3f)", g.Name, g.Param)
	}
	for i, q := range g.Qubits {
		if i == 0 {
			s += fmt.Sprintf(" q%d", q)
		} else {
			s += fmt.Sprintf(",q%d", q)
		}
	}
	return s
}

// Circuit is an ordered gate list over NumQubits qubits.
type Circuit struct {
	NumQubits int
	Gates     []Gate

	// operands is the slab Append copies operands into: each gate's
	// Qubits is a capacity-capped window of it, so one allocation serves
	// many gates and appending to a gate's Qubits never reaches its
	// neighbours.
	operands []int
	// self points at the circuit that owns the free tails of Gates and
	// operands. A value copy fails the check in Append and caps both
	// slices first, so the copy and the original never write the same
	// backing slot (the strings.Builder copy check, without the panic).
	self *Circuit
}

// New creates an empty circuit over n qubits. It panics for n < 1.
func New(n int) *Circuit {
	if n < 1 {
		panic(fmt.Sprintf("circuit: need at least one qubit, got %d", n))
	}
	c := &Circuit{NumQubits: n}
	c.self = c
	return c
}

// Append adds a gate after validating its name, arity, operand range,
// and operand distinctness.
func (c *Circuit) Append(name string, param float64, qubits ...int) {
	a, ok := arity[name]
	if !ok {
		panic(fmt.Sprintf("circuit: unknown gate %q", name))
	}
	if len(qubits) != a.nq {
		panic(fmt.Sprintf("circuit: gate %q wants %d operands, got %d", name, a.nq, len(qubits)))
	}
	for i, q := range qubits {
		if q < 0 || q >= c.NumQubits {
			panic(fmt.Sprintf("circuit: operand q%d out of range [0,%d)", q, c.NumQubits))
		}
		for j := 0; j < i; j++ {
			if qubits[j] == q {
				panic(fmt.Sprintf("circuit: gate %q repeats operand q%d", name, q))
			}
		}
	}
	g := Gate{Name: name, Qubits: c.operandsFor(qubits)}
	if a.hasParam {
		g.Param = param
	}
	c.Gates = append(c.Gates, g)
}

// operandsFor copies qubits into the operand slab and returns the
// copy's capacity-capped window.
func (c *Circuit) operandsFor(qubits []int) []int {
	if c.self != c {
		// A value copy, or a circuit not built by New: claim it, and cap
		// the shared slices so later appends reallocate instead of
		// writing into slots another copy may also use.
		c.self = c
		c.Gates = c.Gates[:len(c.Gates):len(c.Gates)]
		c.operands = c.operands[:len(c.operands):len(c.operands)]
	}
	if cap(c.operands)-len(c.operands) < len(qubits) {
		// Start a fresh slab; the full one stays alive through its
		// gates. The first slab holds two operands per reserved gate
		// slot, so a presized circuit of 1q and 2q gates fills one slab.
		c.operands = make([]int, 0, max(2*cap(c.Gates), 2*cap(c.operands), 16))
	}
	lo := len(c.operands)
	c.operands = append(c.operands, qubits...)
	hi := len(c.operands)
	return c.operands[lo:hi:hi]
}

// Convenience constructors for the gate set.

func (c *Circuit) H(q int)             { c.Append("h", 0, q) }
func (c *Circuit) X(q int)             { c.Append("x", 0, q) }
func (c *Circuit) Y(q int)             { c.Append("y", 0, q) }
func (c *Circuit) Z(q int)             { c.Append("z", 0, q) }
func (c *Circuit) S(q int)             { c.Append("s", 0, q) }
func (c *Circuit) Sdg(q int)           { c.Append("sdg", 0, q) }
func (c *Circuit) T(q int)             { c.Append("t", 0, q) }
func (c *Circuit) Tdg(q int)           { c.Append("tdg", 0, q) }
func (c *Circuit) RX(q int, a float64) { c.Append("rx", a, q) }
func (c *Circuit) RY(q int, a float64) { c.Append("ry", a, q) }
func (c *Circuit) RZ(q int, a float64) { c.Append("rz", a, q) }
func (c *Circuit) CX(ctrl, tgt int)    { c.Append("cx", 0, ctrl, tgt) }
func (c *Circuit) CZ(a, b int)         { c.Append("cz", 0, a, b) }
func (c *Circuit) SWAP(a, b int)       { c.Append("swap", 0, a, b) }
func (c *Circuit) CCX(c1, c2, tgt int) { c.Append("ccx", 0, c1, c2, tgt) }

// OneQubitGates returns the number of single-qubit gates.
func (c *Circuit) OneQubitGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsOneQubit() {
			n++
		}
	}
	return n
}

// TwoQubitGates returns the number of two-qubit gates.
func (c *Circuit) TwoQubitGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

// Depth returns the dependency depth counting every gate as one layer.
func (c *Circuit) Depth() int {
	depth := make([]int, c.NumQubits)
	max := 0
	for _, g := range c.Gates {
		d := 0
		for _, q := range g.Qubits {
			if depth[q] > d {
				d = depth[q]
			}
		}
		d++
		for _, q := range g.Qubits {
			depth[q] = d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// TwoQubitCriticalPath returns the length of the longest dependency chain
// counting only two-qubit gates — the "2q critical" column of Table II.
func (c *Circuit) TwoQubitCriticalPath() int {
	depth := make([]int, c.NumQubits)
	max := 0
	for _, g := range c.Gates {
		d := 0
		for _, q := range g.Qubits {
			if depth[q] > d {
				d = depth[q]
			}
		}
		if g.IsTwoQubit() {
			d++
		}
		for _, q := range g.Qubits {
			depth[q] = d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Counts bundles the paper's Table II metrics.
type Counts struct {
	OneQ, TwoQ, TwoQCritical int
}

// Counts returns the Table II metrics for the circuit.
func (c *Circuit) Counts() Counts {
	return Counts{
		OneQ:         c.OneQubitGates(),
		TwoQ:         c.TwoQubitGates(),
		TwoQCritical: c.TwoQubitCriticalPath(),
	}
}

// String renders the Table II row format "1q / 2q / 2q critical".
func (k Counts) String() string {
	return fmt.Sprintf("%d / %d / %d", k.OneQ, k.TwoQ, k.TwoQCritical)
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]Gate, len(c.Gates))
	n := 0
	for _, g := range c.Gates {
		n += len(g.Qubits)
	}
	out.operands = make([]int, 0, n)
	for i, g := range c.Gates {
		out.Gates[i] = Gate{Name: g.Name, Qubits: out.operandsFor(g.Qubits), Param: g.Param}
	}
	return out
}
