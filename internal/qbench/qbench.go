// Package qbench generates the paper's seven benchmark circuits
// (Section VII-A): Bernstein-Vazirani, QAOA, GHZ, ripple-carry adder,
// quantum primacy random circuits, bit-code syndrome measurement, and
// 1-D transverse-field Ising model (TFIM) Hamiltonian simulation.
//
// Generators produce hardware-agnostic logical circuits; the compiler
// package maps them onto device topologies. Circuits are sized by the
// caller — the paper targets 80% of device qubits (UtilizedQubits).
package qbench

import (
	"fmt"
	"math"
	"math/rand"

	"chipletqc/internal/circuit"
)

// UtilizedQubits returns the benchmark width for a device of n qubits:
// 80% utilisation, leaving ancilla headroom for mapping (paper VII-A),
// with a floor of two qubits.
func UtilizedQubits(deviceQubits int) int {
	u := deviceQubits * 4 / 5
	if u < 2 {
		u = 2
	}
	return u
}

// BV builds a Bernstein-Vazirani circuit over n qubits: n-1 data qubits
// and one oracle ancilla (qubit n-1). hidden's low n-1 bits are the
// hidden string; measuring the data register recovers it exactly.
func BV(n int, hidden uint64) *circuit.Circuit {
	if n < 2 {
		panic(fmt.Sprintf("qbench: BV needs >= 2 qubits, got %d", n))
	}
	c := circuit.New(n)
	anc := n - 1
	c.X(anc)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for q := 0; q < n-1; q++ {
		if hidden>>uint(q)&1 == 1 {
			c.CX(q, anc)
		}
	}
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	return c
}

// AlternatingHidden returns the 1010... hidden string over n-1 data
// qubits, the densest-interaction BV instance commonly benchmarked.
func AlternatingHidden(n int) uint64 {
	var s uint64
	for q := 0; q < n-1 && q < 63; q += 2 {
		s |= 1 << uint(q)
	}
	return s
}

// GHZ builds an n-qubit Greenberger-Horne-Zeilinger state preparation:
// H on qubit 0 followed by a CX chain.
func GHZ(n int) *circuit.Circuit {
	if n < 2 {
		panic(fmt.Sprintf("qbench: GHZ needs >= 2 qubits, got %d", n))
	}
	c := circuit.New(n)
	c.H(0)
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	return c
}

// QAOA builds a depth-p QAOA ansatz for MaxCut on a random (near-)
// 3-regular graph over n vertices: ring edges plus a random chord
// matching. Each round applies e^{-i gamma ZZ} per edge (CX-RZ-CX) and
// an RX mixer layer.
func QAOA(n, rounds int, seed int64) *circuit.Circuit {
	if n < 3 {
		panic(fmt.Sprintf("qbench: QAOA needs >= 3 qubits, got %d", n))
	}
	if rounds < 1 {
		rounds = 1
	}
	r := rand.New(rand.NewSource(seed))
	edges := regularish(n, r)
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for p := 0; p < rounds; p++ {
		gamma := (0.3 + 0.4*r.Float64()) * math.Pi
		beta := (0.2 + 0.3*r.Float64()) * math.Pi
		for _, e := range edges {
			c.CX(e[0], e[1])
			c.RZ(e[1], gamma)
			c.CX(e[0], e[1])
		}
		for q := 0; q < n; q++ {
			c.RX(q, beta)
		}
	}
	return c
}

// regularish returns ring edges plus a random chord matching, giving
// degree 3 for even n (one vertex stays degree 2 for odd n).
func regularish(n int, r *rand.Rand) [][2]int {
	var edges [][2]int
	have := map[[2]int]bool{}
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		k := [2]int{u, v}
		if have[k] {
			return false
		}
		have[k] = true
		edges = append(edges, k)
		return true
	}
	for q := 0; q < n; q++ {
		add(q, (q+1)%n)
	}
	perm := r.Perm(n)
	for i := 0; i+1 < len(perm); i += 2 {
		if !add(perm[i], perm[i+1]) {
			// Fall back to a fixed long chord; duplicates are skipped.
			add(perm[i], (perm[i]+n/2)%n)
		}
	}
	return edges
}

// Adder builds the Cuccaro ripple-carry adder over n qubits, computing
// b := a + b with carry-out. Operand width is m = (n-2)/2 bits; qubit
// layout is [c0, a0, b0, a1, b1, ..., a_{m-1}, b_{m-1}, z]; any qubits
// beyond 2m+2 idle. The low m bits of aVal and bVal are loaded with X
// gates so the circuit is self-contained and simulable.
func Adder(n int, aVal, bVal uint64) *circuit.Circuit {
	m := AdderOperandBits(n)
	if m < 1 {
		panic(fmt.Sprintf("qbench: adder needs >= 4 qubits, got %d", n))
	}
	c := circuit.New(n)
	aQ := func(i int) int { return 1 + 2*i }
	bQ := func(i int) int { return 2 + 2*i }
	c0 := 0
	z := 2*m + 1

	for i := 0; i < m; i++ {
		if aVal>>uint(i)&1 == 1 {
			c.X(aQ(i))
		}
		if bVal>>uint(i)&1 == 1 {
			c.X(bQ(i))
		}
	}

	maj := func(ci, bi, ai int) {
		c.CX(ai, bi)
		c.CX(ai, ci)
		c.CCX(ci, bi, ai)
	}
	uma := func(ci, bi, ai int) {
		c.CCX(ci, bi, ai)
		c.CX(ai, ci)
		c.CX(ci, bi)
	}

	maj(c0, bQ(0), aQ(0))
	for i := 1; i < m; i++ {
		maj(aQ(i-1), bQ(i), aQ(i))
	}
	c.CX(aQ(m-1), z)
	for i := m - 1; i >= 1; i-- {
		uma(aQ(i-1), bQ(i), aQ(i))
	}
	uma(c0, bQ(0), aQ(0))
	return c
}

// AdderOperandBits returns the operand width m of an n-qubit Adder.
func AdderOperandBits(n int) int { return (n - 2) / 2 }

// Primacy builds a quantum-primacy style random circuit: `depth` layers
// of random sqrt-rotation single-qubit gates (never repeating on a qubit
// between consecutive layers) interleaved with CZ couplings on an
// alternating linear pattern, as in the supremacy experiments.
func Primacy(n, depth int, seed int64) *circuit.Circuit {
	if n < 2 {
		panic(fmt.Sprintf("qbench: primacy needs >= 2 qubits, got %d", n))
	}
	if depth < 1 {
		depth = 1
	}
	r := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	last := make([]int, n)
	for q := range last {
		last[q] = -1
	}
	for layer := 0; layer < depth; layer++ {
		for q := 0; q < n; q++ {
			g := r.Intn(3)
			for g == last[q] {
				g = r.Intn(3)
			}
			last[q] = g
			switch g {
			case 0:
				c.RX(q, math.Pi/2)
			case 1:
				c.RY(q, math.Pi/2)
			default:
				c.T(q)
				c.RX(q, math.Pi/2)
			}
		}
		off := layer % 2
		for q := off; q+1 < n; q += 2 {
			c.CZ(q, q+1)
		}
	}
	return c
}

// BitCode builds one round of bit-flip code syndrome measurement over n
// qubits: data qubits at even indices, syndrome ancillas at odd indices.
// dataPrep's bit i X-prepares data qubit 2i, so injected "errors" are
// visible in the syndrome pattern. Ancilla 2k+1 accumulates the parity
// of data qubits 2k and 2k+2.
func BitCode(n int, dataPrep uint64) *circuit.Circuit {
	if n < 3 {
		panic(fmt.Sprintf("qbench: bit code needs >= 3 qubits, got %d", n))
	}
	c := circuit.New(n)
	for q := 0; q < n; q += 2 {
		if dataPrep>>uint(q/2)&1 == 1 {
			c.X(q)
		}
	}
	for a := 1; a < n; a += 2 {
		c.CX(a-1, a)
		if a+1 < n {
			c.CX(a+1, a)
		}
	}
	return c
}

// TFIM builds a first-order Trotterised simulation of the 1-D transverse
// field Ising model H = -J sum Z_i Z_{i+1} - h sum X_i over n spins:
// `steps` Trotter steps of duration dt, each applying e^{i J dt Z Z}
// couplings along the chain (CX-RZ-CX) and an RX transverse-field layer.
func TFIM(n, steps int, dt, j, h float64) *circuit.Circuit {
	if n < 2 {
		panic(fmt.Sprintf("qbench: TFIM needs >= 2 qubits, got %d", n))
	}
	if steps < 1 {
		steps = 1
	}
	c := circuit.New(n)
	for s := 0; s < steps; s++ {
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
			c.RZ(q+1, -2*j*dt)
			c.CX(q, q+1)
		}
		for q := 0; q < n; q++ {
			c.RX(q, -2*h*dt)
		}
	}
	return c
}
