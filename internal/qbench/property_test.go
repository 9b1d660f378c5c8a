package qbench

import (
	"math"
	"testing"
	"testing/quick"

	"chipletqc/internal/circuit"
	"chipletqc/internal/qsim"
)

// TestAdderPropertyExhaustive runs the Cuccaro adder over random operand
// pairs at random widths, checking sum and carry by simulation.
func TestAdderPropertyExhaustive(t *testing.T) {
	f := func(aRaw, bRaw uint8, mRaw uint8) bool {
		m := 2 + int(mRaw)%3 // 2..4-bit operands (simulable widths)
		n := 2*m + 2
		mask := uint64(1)<<uint(m) - 1
		a := uint64(aRaw) & mask
		b := uint64(bRaw) & mask
		c := circuit.Decompose(Adder(n, a, b))
		s := qsim.Run(c)
		want := a + b
		sumQs, carry := adderSumQubits(n)
		qs := append(append([]int(nil), sumQs...), carry)
		bits := make([]int, len(qs))
		for i := 0; i < m; i++ {
			bits[i] = int(want >> uint(i) & 1)
		}
		bits[m] = int(want >> uint(m) & 1)
		return math.Abs(s.MarginalProbability(qs, bits)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBVPropertyAllHiddenStrings checks BV recovery for every hidden
// string at width 5.
func TestBVPropertyAllHiddenStrings(t *testing.T) {
	const n = 5
	for hidden := uint64(0); hidden < 1<<(n-1); hidden++ {
		s := qsim.Run(BV(n, hidden))
		qs := make([]int, n-1)
		bits := make([]int, n-1)
		for i := range qs {
			qs[i] = i
			bits[i] = int(hidden >> uint(i) & 1)
		}
		if p := s.MarginalProbability(qs, bits); math.Abs(p-1) > 1e-9 {
			t.Fatalf("hidden %04b: P = %v", hidden, p)
		}
	}
}

// TestGHZScalesLinearly pins the generator's gate-count law.
func TestGHZScalesLinearly(t *testing.T) {
	for n := 2; n <= 40; n += 7 {
		c := GHZ(n)
		if c.TwoQubitGates() != n-1 || c.OneQubitGates() != 1 {
			t.Errorf("GHZ(%d) counts = %v", n, c.Counts())
		}
		if c.TwoQubitCriticalPath() != n-1 {
			t.Errorf("GHZ(%d) critical = %d", n, c.TwoQubitCriticalPath())
		}
	}
}

// TestTFIMStepScaling: Trotter steps multiply gate counts linearly.
func TestTFIMStepScaling(t *testing.T) {
	base := TFIM(12, 1, 0.1, 1, 1)
	tripled := TFIM(12, 3, 0.1, 1, 1)
	if tripled.TwoQubitGates() != 3*base.TwoQubitGates() {
		t.Errorf("2q: %d vs 3x%d", tripled.TwoQubitGates(), base.TwoQubitGates())
	}
	if tripled.OneQubitGates() != 3*base.OneQubitGates() {
		t.Errorf("1q: %d vs 3x%d", tripled.OneQubitGates(), base.OneQubitGates())
	}
}

// TestQAOARoundScaling: rounds multiply the entangler count linearly.
func TestQAOARoundScaling(t *testing.T) {
	one := QAOA(10, 1, 5)
	three := QAOA(10, 3, 5)
	if three.TwoQubitGates() != 3*one.TwoQubitGates() {
		t.Errorf("2q: %d vs 3x%d", three.TwoQubitGates(), one.TwoQubitGates())
	}
}

// TestPrimacyDepthScaling: entangler layers follow depth.
func TestPrimacyDepthScaling(t *testing.T) {
	shallow := Primacy(9, 4, 2)
	deep := Primacy(9, 8, 2)
	if deep.TwoQubitGates() != 2*shallow.TwoQubitGates() {
		t.Errorf("2q: %d vs 2x%d", deep.TwoQubitGates(), shallow.TwoQubitGates())
	}
}

// TestBitCodeSyndromePropertySingleErrors: every single data-qubit error
// produces its expected syndrome signature.
func TestBitCodeSyndromePropertySingleErrors(t *testing.T) {
	const n = 9 // data 0,2,4,6,8; ancilla 1,3,5,7
	anc := bitCodeSyndromeQubits(n)
	for dataBit := 0; dataBit < (n+1)/2; dataBit++ {
		c := BitCode(n, 1<<uint(dataBit))
		s := qsim.Run(c)
		want := make([]int, len(anc))
		for k, a := range anc {
			// Ancilla at index a touches data a-1 and a+1.
			if a-1 == 2*dataBit || a+1 == 2*dataBit {
				want[k] = 1
			}
		}
		if p := s.MarginalProbability(anc, want); math.Abs(p-1) > 1e-9 {
			t.Errorf("error on data %d: syndrome %v not certain (P=%v)", dataBit, want, p)
		}
	}
}
