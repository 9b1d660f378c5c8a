package circuit

// Decompose lowers a circuit to the {1q, CX} basis native to
// fixed-frequency transmon hardware: SWAP becomes three CX, CZ becomes
// H-CX-H, and CCX (Toffoli) becomes the standard six-CX network. Gates
// already in the basis pass through unchanged.
func Decompose(c *Circuit) *Circuit {
	out := New(c.NumQubits)
	n := len(c.Gates)
	for _, g := range c.Gates {
		switch g.op {
		case OpSWAP, OpCZ:
			n += 2
		case OpCCX:
			n += 14
		}
	}
	out.Gates = make([]Gate, 0, n)
	for _, g := range c.Gates {
		q := g.Qubits()
		switch g.op {
		case OpSWAP:
			emitSwap(out, int(q[0]), int(q[1]))
		case OpCZ:
			// CZ = (I x H) CX (I x H).
			out.H(int(q[1]))
			out.CX(int(q[0]), int(q[1]))
			out.H(int(q[1]))
		case OpCCX:
			emitToffoli(out, int(q[0]), int(q[1]), int(q[2]))
		default:
			// Already native, and valid: c's Add checked it.
			out.push(g)
		}
	}
	return out
}

// emitSwap writes SWAP(a, b) as three alternating CX gates.
func emitSwap(c *Circuit, a, b int) {
	c.CX(a, b)
	c.CX(b, a)
	c.CX(a, b)
}

// emitToffoli writes the textbook six-CX Toffoli decomposition
// (Nielsen & Chuang Fig. 4.9) with controls a, b and target t.
func emitToffoli(c *Circuit, a, b, t int) {
	c.H(t)
	c.CX(b, t)
	c.Tdg(t)
	c.CX(a, t)
	c.T(t)
	c.CX(b, t)
	c.Tdg(t)
	c.CX(a, t)
	c.T(b)
	c.T(t)
	c.H(t)
	c.CX(a, b)
	c.T(a)
	c.Tdg(b)
	c.CX(a, b)
}

// IsNative reports whether every gate is a single-qubit gate or CX.
func IsNative(c *Circuit) bool {
	for _, g := range c.Gates {
		if g.IsOneQubit() {
			continue
		}
		if g.op != OpCX {
			return false
		}
	}
	return true
}
