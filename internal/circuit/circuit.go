// Package circuit provides the quantum circuit intermediate
// representation used by the benchmark generators, the compiler, and the
// application-fidelity evaluation: a flat gate list with dependency-aware
// depth and critical-path accounting matching the paper's Table II
// metrics (1q count / 2q count / 2q critical path).
package circuit

import (
	"fmt"
	"math"
	"slices"
)

// Op is a gate opcode; its String is the QASM name. Opcodes are grouped
// by operand count, the rotations last among the 1q gates, and the zero
// Op names no gate.
type Op uint8

// The gate set.
const (
	OpH Op = iota + 1
	OpX
	OpY
	OpZ
	OpS
	OpSdg
	OpT
	OpTdg
	OpRX
	OpRY
	OpRZ
	OpCX
	OpCZ
	OpSWAP
	OpCCX
)

var opNames = [...]string{"", "h", "x", "y", "z", "s", "sdg", "t", "tdg",
	"rx", "ry", "rz", "cx", "cz", "swap", "ccx"}

func (op Op) valid() bool { return op > 0 && int(op) < len(opNames) }

// String returns the gate's QASM name.
func (op Op) String() string {
	if !op.valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opNames[op]
}

// arity returns the operand count of a valid op.
func (op Op) arity() int {
	switch {
	case op == OpCCX:
		return 3
	case op >= OpCX:
		return 2
	}
	return 1
}

// hasParam reports whether the gate takes a rotation angle.
func (op Op) hasParam() bool { return op >= OpRX && op <= OpRZ }

// opNamed returns the opcode whose QASM name is name.
func opNamed(name string) (Op, bool) {
	i := slices.Index(opNames[1:], name)
	return Op(i + 1), i >= 0
}

// Gate is one operation: an opcode with up to three inline operands, so
// a gate list holds no pointers. Qubit operand order is significant: for
// CX the first operand is the control; for CCX the first two are
// controls. A Gate is built only by Circuit.Add, which validates it.
type Gate struct {
	Param float64 // rotation angle for R* gates, 0 otherwise
	q     [3]int32
	op    Op
	n     uint8
}

// Op returns the gate's opcode.
func (g Gate) Op() Op { return g.op }

// Name returns the gate's QASM name, e.g. "cx".
func (g Gate) Name() string { return g.op.String() }

// Qubits returns the gate's operands as a capacity-capped view of a
// copy: appending to it or writing through it never reaches the circuit.
func (g Gate) Qubits() []int32 { return g.q[:g.n:g.n] }

// IsTwoQubit reports whether the gate acts on exactly two qubits.
func (g Gate) IsTwoQubit() bool { return g.n == 2 }

// IsOneQubit reports whether the gate acts on exactly one qubit.
func (g Gate) IsOneQubit() bool { return g.n == 1 }

// String renders e.g. "cx q1,q4" or "rz(0.50) q3".
func (g Gate) String() string {
	s := g.Name()
	if g.op.hasParam() {
		s = fmt.Sprintf("%s(%.3f)", s, g.Param)
	}
	sep := " "
	for _, q := range g.Qubits() {
		s += fmt.Sprintf("%sq%d", sep, q)
		sep = ","
	}
	return s
}

// Circuit is an ordered gate list over NumQubits qubits.
type Circuit struct {
	NumQubits int
	Gates     []Gate

	// self points at the circuit that owns the free tail of Gates: a
	// value copy fails push's check and caps Gates, so no two copies
	// write one slot (strings.Builder's copy check, without the panic).
	self *Circuit
}

// New creates an empty circuit over n qubits. It panics for n < 1, and
// above math.MaxInt32, the widest operand a gate stores.
func New(n int) *Circuit {
	if n < 1 || n > math.MaxInt32 {
		panic(fmt.Sprintf("circuit: qubit count %d outside [1, %d]", n, math.MaxInt32))
	}
	c := &Circuit{NumQubits: n}
	c.self = c
	return c
}

// Append adds the gate named name; it panics for an unknown name and
// otherwise as Add does.
func (c *Circuit) Append(name string, param float64, qubits ...int) {
	op, ok := opNamed(name)
	if !ok {
		panic(fmt.Sprintf("circuit: unknown gate %q", name))
	}
	c.Add(op, param, qubits...)
}

// Add adds a gate after validating its opcode, arity, operand range,
// and operand distinctness; it panics on any violation. The angle is
// kept only for gates that take one.
func (c *Circuit) Add(op Op, param float64, qubits ...int) {
	if err := c.add(op, param, qubits); err != nil {
		panic("circuit: " + err.Error())
	}
}

// add validates one gate of c and appends it.
func (c *Circuit) add(op Op, param float64, qubits []int) error {
	if !op.valid() {
		return fmt.Errorf("unknown gate %v", op)
	}
	if nq := op.arity(); len(qubits) != nq {
		return fmt.Errorf("gate %q wants %d operands, got %d", op, nq, len(qubits))
	}
	g := Gate{op: op, n: uint8(len(qubits))}
	for i, q := range qubits {
		if q < 0 || q >= c.NumQubits {
			return fmt.Errorf("operand q%d out of range [0,%d)", q, c.NumQubits)
		}
		if slices.Contains(qubits[:i], q) {
			return fmt.Errorf("gate %q repeats operand q%d", op, q)
		}
		g.q[i] = int32(q)
	}
	if op.hasParam() {
		g.Param = param
	}
	c.push(g)
	return nil
}

// push appends an already valid gate.
func (c *Circuit) push(g Gate) {
	if c.self != c {
		// A value copy, or a circuit not built by New: claim it, and cap
		// the shared gate list so the next append reallocates.
		c.self = c
		c.Gates = c.Gates[:len(c.Gates):len(c.Gates)]
	}
	c.Gates = append(c.Gates, g)
}

// Convenience constructors for the gate set.

func (c *Circuit) H(q int)             { c.Add(OpH, 0, q) }
func (c *Circuit) X(q int)             { c.Add(OpX, 0, q) }
func (c *Circuit) Y(q int)             { c.Add(OpY, 0, q) }
func (c *Circuit) Z(q int)             { c.Add(OpZ, 0, q) }
func (c *Circuit) S(q int)             { c.Add(OpS, 0, q) }
func (c *Circuit) Sdg(q int)           { c.Add(OpSdg, 0, q) }
func (c *Circuit) T(q int)             { c.Add(OpT, 0, q) }
func (c *Circuit) Tdg(q int)           { c.Add(OpTdg, 0, q) }
func (c *Circuit) RX(q int, a float64) { c.Add(OpRX, a, q) }
func (c *Circuit) RY(q int, a float64) { c.Add(OpRY, a, q) }
func (c *Circuit) RZ(q int, a float64) { c.Add(OpRZ, a, q) }
func (c *Circuit) CX(ctrl, tgt int)    { c.Add(OpCX, 0, ctrl, tgt) }
func (c *Circuit) CZ(a, b int)         { c.Add(OpCZ, 0, a, b) }
func (c *Circuit) SWAP(a, b int)       { c.Add(OpSWAP, 0, a, b) }
func (c *Circuit) CCX(c1, c2, tgt int) { c.Add(OpCCX, 0, c1, c2, tgt) }

// OneQubitGates returns the number of single-qubit gates.
func (c *Circuit) OneQubitGates() int { return c.Counts().OneQ }

// TwoQubitGates returns the number of two-qubit gates.
func (c *Circuit) TwoQubitGates() int { return c.Counts().TwoQ }

// Depth returns the dependency depth counting every gate as one layer.
func (c *Circuit) Depth() int {
	depth := make([]int, c.NumQubits)
	deepest := 0
	for _, g := range c.Gates {
		d := 0
		for _, q := range g.Qubits() {
			d = max(d, depth[q])
		}
		d++
		for _, q := range g.Qubits() {
			depth[q] = d
		}
		deepest = max(deepest, d)
	}
	return deepest
}

// TwoQubitCriticalPath returns the length of the longest dependency chain
// counting only two-qubit gates — the "2q critical" column of Table II.
func (c *Circuit) TwoQubitCriticalPath() int { return c.Counts().TwoQCritical }

// Counts bundles the paper's Table II metrics.
type Counts struct {
	OneQ, TwoQ, TwoQCritical int
}

// Counts returns the Table II metrics for the circuit in one pass. A
// gate ends its operands' 2q chains at the deepest of them, one deeper
// for a two-qubit gate; a 1q gate leaves its operand's chain as it is.
func (c *Circuit) Counts() Counts {
	var k Counts
	depth := make([]int, c.NumQubits)
	for _, g := range c.Gates {
		q := g.Qubits()
		switch len(q) {
		case 1:
			k.OneQ++
			continue
		case 2:
			k.TwoQ++
		}
		d := 0
		for _, v := range q {
			d = max(d, depth[v])
		}
		if len(q) == 2 {
			d++
		}
		for _, v := range q {
			depth[v] = d
		}
		k.TwoQCritical = max(k.TwoQCritical, d)
	}
	return k
}

// String renders the Table II row format "1q / 2q / 2q critical".
func (k Counts) String() string {
	return fmt.Sprintf("%d / %d / %d", k.OneQ, k.TwoQ, k.TwoQCritical)
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Gates = slices.Clone(c.Gates)
	return out
}
