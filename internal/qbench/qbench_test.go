package qbench

import (
	"math"
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/qsim"
)

const tol = 1e-9

func TestUtilizedQubits(t *testing.T) {
	cases := []struct{ dev, want int }{
		{10, 8}, {20, 16}, {40, 32}, {100, 80}, {2, 2}, {1, 2},
	}
	for _, c := range cases {
		if got := UtilizedQubits(c.dev); got != c.want {
			t.Errorf("UtilizedQubits(%d) = %d, want %d", c.dev, got, c.want)
		}
	}
}

func TestBVRecoversHiddenString(t *testing.T) {
	// After the BV circuit the data register reads the hidden string
	// with probability 1.
	for _, hidden := range []uint64{0b0000, 0b1011, 0b0110, 0b1111} {
		c := BV(5, hidden)
		s := qsim.Run(c)
		qs := []int{0, 1, 2, 3}
		bits := make([]int, 4)
		for i := range bits {
			bits[i] = int(hidden >> uint(i) & 1)
		}
		if p := s.MarginalProbability(qs, bits); math.Abs(p-1) > tol {
			t.Errorf("hidden %04b recovered with P=%v, want 1", hidden, p)
		}
	}
}

func TestBVPanicsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BV(1, 0)
}

func TestAlternatingHidden(t *testing.T) {
	if got := AlternatingHidden(5); got != 0b0101 {
		t.Errorf("AlternatingHidden(5) = %b, want 0101", got)
	}
	// Popcount drives the BV 2q gate count: for n=9, 4 ones.
	c := BV(9, AlternatingHidden(9))
	if got := c.TwoQubitGates(); got != 4 {
		t.Errorf("BV 2q gates = %d, want 4", got)
	}
}

func TestGHZState(t *testing.T) {
	c := GHZ(4)
	s := qsim.Run(c)
	p0 := s.Probability(0b0000)
	p1 := s.Probability(0b1111)
	if math.Abs(p0-0.5) > tol || math.Abs(p1-0.5) > tol {
		t.Errorf("GHZ probabilities: P(0)=%v P(1111)=%v, want 0.5 each", p0, p1)
	}
	// Everything else zero.
	var rest float64
	for i := 1; i < 15; i++ {
		rest += s.Probability(i)
	}
	if rest > tol {
		t.Errorf("GHZ leaks %v probability outside cat states", rest)
	}
	if got := c.TwoQubitGates(); got != 3 {
		t.Errorf("GHZ(4) CX count = %d, want 3", got)
	}
}

func TestQAOAStructure(t *testing.T) {
	c := QAOA(8, 1, 1)
	// Edges: 8 ring + up to 4 matching chords; each edge costs 2 CX.
	twoQ := c.TwoQubitGates()
	if twoQ < 16 || twoQ > 24 {
		t.Errorf("QAOA 2q gates = %d, want 16-24", twoQ)
	}
	if twoQ%2 != 0 {
		t.Errorf("QAOA 2q gates = %d, want even (CX pairs)", twoQ)
	}
	// One H + one RX per qubit at p=1, plus one RZ per edge.
	if oneQ := c.OneQubitGates(); oneQ != 8+8+twoQ/2 {
		t.Errorf("QAOA 1q gates = %d, want %d", oneQ, 16+twoQ/2)
	}
	// Determinism.
	c2 := QAOA(8, 1, 1)
	if len(c2.Gates) != len(c.Gates) {
		t.Error("QAOA not deterministic for fixed seed")
	}
	// Unitarity on a simulable size.
	if n := qsim.Run(circuit.Decompose(QAOA(6, 2, 3))).Norm(); math.Abs(n-1) > tol {
		t.Errorf("QAOA norm = %v", n)
	}
}

func TestRegularishDegrees(t *testing.T) {
	c := QAOA(10, 1, 7)
	// Count per-qubit 2q incidences: each edge -> 2 CX touching both its
	// endpoints twice (CX-RZ-CX). Degree bound: <= 4 edges per vertex
	// given ring + matching, typically 3.
	deg := make(map[int]int)
	for _, g := range c.Gates {
		if g.Op() == circuit.OpCX {
			deg[int(g.Qubits()[0])]++
			deg[int(g.Qubits()[1])]++
		}
	}
	for q, d := range deg {
		// Each incident edge contributes 2 CX touches.
		if d/2 > 4 {
			t.Errorf("qubit %d has degree %d, want <= 4", q, d/2)
		}
	}
}

func TestAdderAddsCorrectly(t *testing.T) {
	// 3-bit operands on 8 qubits: exhaustive small cases.
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 0}, {3, 5}, {7, 7}, {5, 6}, {2, 3},
	}
	for _, tc := range cases {
		n := 8
		c := circuit.Decompose(Adder(n, tc.a, tc.b))
		s := qsim.Run(c)
		sumQs, carry := adderSumQubits(n)
		m := AdderOperandBits(n)
		want := tc.a + tc.b
		bits := make([]int, len(sumQs))
		for i := range bits {
			bits[i] = int(want >> uint(i) & 1)
		}
		qs := append(append([]int(nil), sumQs...), carry)
		bits = append(bits, int(want>>uint(m)&1))
		if p := s.MarginalProbability(qs, bits); math.Abs(p-1) > tol {
			t.Errorf("adder %d+%d: P(correct sum) = %v, want 1", tc.a, tc.b, p)
		}
	}
}

func TestAdderPreservesOperandA(t *testing.T) {
	// The Cuccaro adder restores the a register.
	n := 8
	a, b := uint64(5), uint64(3)
	c := circuit.Decompose(Adder(n, a, b))
	s := qsim.Run(c)
	aQs := []int{1, 3, 5}
	bits := []int{int(a & 1), int(a >> 1 & 1), int(a >> 2 & 1)}
	if p := s.MarginalProbability(aQs, bits); math.Abs(p-1) > tol {
		t.Errorf("operand a not restored: P = %v", p)
	}
}

func TestAdderPanicsTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Adder(3, 0, 0)
}

func TestPrimacyStructure(t *testing.T) {
	c := Primacy(8, 10, 2)
	if c.TwoQubitGates() == 0 {
		t.Fatal("primacy circuit has no entanglers")
	}
	// No qubit repeats its 1q gate choice between consecutive layers —
	// verified indirectly by determinism and by gate-count plausibility:
	// each layer has >= n 1q gates.
	if c.OneQubitGates() < 80 {
		t.Errorf("primacy 1q gates = %d, want >= 80", c.OneQubitGates())
	}
	c2 := Primacy(8, 10, 2)
	if len(c2.Gates) != len(c.Gates) {
		t.Error("primacy not deterministic for fixed seed")
	}
	if n := qsim.Run(circuit.Decompose(Primacy(6, 6, 5))).Norm(); math.Abs(n-1) > tol {
		t.Errorf("primacy norm = %v", n)
	}
}

func TestBitCodeCleanSyndromeIsZero(t *testing.T) {
	// No data preparation: all syndromes read 0.
	c := BitCode(7, 0)
	s := qsim.Run(c)
	anc := bitCodeSyndromeQubits(7)
	bits := make([]int, len(anc))
	if p := s.MarginalProbability(anc, bits); math.Abs(p-1) > tol {
		t.Errorf("clean syndrome P = %v, want 1", p)
	}
}

func TestBitCodeDetectsInjectedError(t *testing.T) {
	// Flipping data qubit 2 (dataPrep bit 1) fires ancillas 1 and 3.
	c := BitCode(7, 0b010)
	s := qsim.Run(c)
	anc := bitCodeSyndromeQubits(7) // [1 3 5]
	if p := s.MarginalProbability(anc, []int{1, 1, 0}); math.Abs(p-1) > tol {
		t.Errorf("syndrome for middle-qubit error = %v, want [1 1 0] with P=1", p)
	}
	// Boundary error on data qubit 0 fires only ancilla 1.
	c2 := BitCode(7, 0b001)
	s2 := qsim.Run(c2)
	if p := s2.MarginalProbability(anc, []int{1, 0, 0}); math.Abs(p-1) > tol {
		t.Errorf("syndrome for boundary error = %v, want [1 0 0] with P=1", p)
	}
}

func TestTFIMAgainstExactTwoSpinEvolution(t *testing.T) {
	// For two spins with h = 0 the Trotterisation is exact: the circuit
	// applies e^{i J dt Z Z}. Starting from |++> (eigenstate mix), check
	// against the analytic expectation: state stays normalised and the
	// ZZ rotation leaves computational probabilities of |00>+|11> vs
	// |01>+|10> unchanged (diagonal unitary).
	pre := circuit.New(2)
	pre.H(0)
	pre.H(1)
	tf := TFIM(2, 1, 0.3, 1.0, 0.0)
	full := pre.Clone()
	for _, g := range tf.Gates {
		full.Gates = append(full.Gates, g)
	}
	s := qsim.Run(circuit.Decompose(full))
	for i := 0; i < 4; i++ {
		if p := s.Probability(i); math.Abs(p-0.25) > tol {
			t.Errorf("diagonal ZZ evolution changed P(%02b) = %v, want 0.25", i, p)
		}
	}
	if n := s.Norm(); math.Abs(n-1) > tol {
		t.Errorf("TFIM norm = %v", n)
	}
}

func TestTFIMGateCounts(t *testing.T) {
	// One Trotter step over n spins: (n-1) ZZ couplings of 2 CX each.
	c := TFIM(10, 1, 0.1, 1, 1)
	if got := c.TwoQubitGates(); got != 18 {
		t.Errorf("TFIM 2q gates = %d, want 18", got)
	}
	if got := c.OneQubitGates(); got != 9+10 {
		t.Errorf("TFIM 1q gates = %d, want 19", got)
	}
}

func TestSuiteCoversSevenBenchmarksNatively(t *testing.T) {
	suite := Suite()
	if len(suite) != 7 {
		t.Fatalf("suite has %d entries, want 7", len(suite))
	}
	shorts := map[string]bool{}
	for _, s := range suite {
		shorts[s.Short] = true
		c := s.Generate(16, 1)
		if c == nil || len(c.Gates) == 0 {
			t.Errorf("%s: empty circuit", s.Name)
			continue
		}
		if !circuit.IsNative(c) {
			t.Errorf("%s: suite circuits must be native", s.Name)
		}
		if c.NumQubits != 16 {
			t.Errorf("%s: width %d, want 16", s.Name, c.NumQubits)
		}
	}
	for _, want := range []string{"bv", "g", "q", "a", "p", "bc", "h"} {
		if !shorts[want] {
			t.Errorf("suite missing %q", want)
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	for _, s := range Suite() {
		a := s.Generate(12, 9)
		b := s.Generate(12, 9)
		if len(a.Gates) != len(b.Gates) {
			t.Errorf("%s: non-deterministic generation", s.Name)
		}
	}
}

// adderSumQubits returns the qubit indices holding the m-bit sum (the b
// register) and the carry-out qubit of an n-qubit Adder.
func adderSumQubits(n int) (sum []int, carry int) {
	m := AdderOperandBits(n)
	for i := 0; i < m; i++ {
		sum = append(sum, 2+2*i)
	}
	return sum, 2*m + 1
}

// bitCodeSyndromeQubits returns the ancilla indices of an n-qubit
// BitCode circuit.
func bitCodeSyndromeQubits(n int) []int {
	var out []int
	for a := 1; a < n; a += 2 {
		out = append(out, a)
	}
	return out
}
