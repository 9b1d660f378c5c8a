package circuit

// Decompose lowers a circuit to the {1q, CX} basis native to
// fixed-frequency transmon hardware: SWAP becomes three CX, CZ becomes
// H-CX-H, and CCX (Toffoli) becomes the standard six-CX network. Gates
// already in the basis pass through unchanged.
func Decompose(c *Circuit) *Circuit {
	out := New(c.NumQubits)
	n := 0
	for _, g := range c.Gates {
		n += loweredLen(g.Name)
	}
	out.Gates = make([]Gate, 0, n)
	for _, g := range c.Gates {
		switch g.Name {
		case "swap":
			emitSwap(out, g.Qubits[0], g.Qubits[1])
		case "cz":
			// CZ = (I x H) CX (I x H).
			out.H(g.Qubits[1])
			out.CX(g.Qubits[0], g.Qubits[1])
			out.H(g.Qubits[1])
		case "ccx":
			emitToffoli(out, g.Qubits[0], g.Qubits[1], g.Qubits[2])
		default:
			out.Append(g.Name, g.Param, g.Qubits...)
		}
	}
	return out
}

// loweredLen returns the number of gates Decompose emits for one gate.
func loweredLen(name string) int {
	switch name {
	case "swap", "cz":
		return 3
	case "ccx":
		return 15
	}
	return 1
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
		if g.Name != "cx" {
			return false
		}
	}
	return true
}
