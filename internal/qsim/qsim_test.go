package qsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chipletqc/internal/circuit"
)

const tol = 1e-9

func TestNewStateIsZero(t *testing.T) {
	s := NewState(3)
	if s.NumQubits() != 3 {
		t.Fatalf("n = %d", s.NumQubits())
	}
	if p := s.Probability(0); math.Abs(p-1) > tol {
		t.Errorf("P(|000>) = %v, want 1", p)
	}
	if n := s.Norm(); math.Abs(n-1) > tol {
		t.Errorf("norm = %v", n)
	}
}

func TestNewStateBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxQubits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewState(%d) should panic", n)
				}
			}()
			NewState(n)
		}()
	}
}

func TestHadamardSuperposition(t *testing.T) {
	c := circuit.New(1)
	c.H(0)
	s := Run(c)
	if p0 := s.Probability(0); math.Abs(p0-0.5) > tol {
		t.Errorf("P(0) = %v, want 0.5", p0)
	}
	if p1 := s.Probability(1); math.Abs(p1-0.5) > tol {
		t.Errorf("P(1) = %v, want 0.5", p1)
	}
}

func TestXFlips(t *testing.T) {
	c := circuit.New(2)
	c.X(1)
	s := Run(c)
	if p := s.Probability(0b10); math.Abs(p-1) > tol {
		t.Errorf("P(|10>) = %v, want 1", p)
	}
}

func TestBellState(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	s := Run(c)
	for idx, want := range map[int]float64{0b00: 0.5, 0b11: 0.5, 0b01: 0, 0b10: 0} {
		if p := s.Probability(idx); math.Abs(p-want) > tol {
			t.Errorf("P(%02b) = %v, want %v", idx, p, want)
		}
	}
}

func TestCXControlOrder(t *testing.T) {
	// CX(0->1) on |01> (qubit 0 set) flips qubit 1.
	c := circuit.New(2)
	c.X(0)
	c.CX(0, 1)
	s := Run(c)
	if p := s.Probability(0b11); math.Abs(p-1) > tol {
		t.Errorf("P(|11>) = %v, want 1", p)
	}
	// CX(1->0) on |01> does nothing.
	c2 := circuit.New(2)
	c2.X(0)
	c2.CX(1, 0)
	s2 := Run(c2)
	if p := s2.Probability(0b01); math.Abs(p-1) > tol {
		t.Errorf("P(|01>) = %v, want 1", p)
	}
}

func TestCZPhase(t *testing.T) {
	c := circuit.New(2)
	c.X(0)
	c.X(1)
	c.CZ(0, 1)
	s := Run(c)
	if a := s.Amplitude(0b11); math.Abs(real(a)+1) > tol || math.Abs(imag(a)) > tol {
		t.Errorf("CZ|11> amplitude = %v, want -1", a)
	}
}

func TestSwap(t *testing.T) {
	c := circuit.New(2)
	c.X(0)
	c.SWAP(0, 1)
	s := Run(c)
	if p := s.Probability(0b10); math.Abs(p-1) > tol {
		t.Errorf("P(|10>) = %v, want 1", p)
	}
}

func TestSwapEqualsThreeCX(t *testing.T) {
	// On random product states, SWAP == decomposed SWAP.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *circuit.Circuit {
			c := circuit.New(3)
			for q := 0; q < 3; q++ {
				c.RY(q, r.Float64()*math.Pi)
				c.RZ(q, r.Float64()*math.Pi)
			}
			return c
		}
		a := mk()
		a.SWAP(0, 2)
		b := mk() // same RNG? no — rebuild with same seed
		// rebuild deterministically: re-seed.
		r = rand.New(rand.NewSource(seed))
		b = circuit.New(3)
		for q := 0; q < 3; q++ {
			b.RY(q, r.Float64()*math.Pi)
			b.RZ(q, r.Float64()*math.Pi)
		}
		r = rand.New(rand.NewSource(seed))
		a = circuit.New(3)
		for q := 0; q < 3; q++ {
			a.RY(q, r.Float64()*math.Pi)
			a.RZ(q, r.Float64()*math.Pi)
		}
		a.SWAP(0, 2)
		b.CX(0, 2)
		b.CX(2, 0)
		b.CX(0, 2)
		return Run(a).FidelityWith(Run(b)) > 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestToffoliTruthTable(t *testing.T) {
	for in := 0; in < 8; in++ {
		c := circuit.New(3)
		for q := 0; q < 3; q++ {
			if in>>uint(q)&1 == 1 {
				c.X(q)
			}
		}
		c.CCX(0, 1, 2)
		want := in
		if in&0b011 == 0b011 {
			want ^= 0b100
		}
		s := Run(c)
		if p := s.Probability(want); math.Abs(p-1) > tol {
			t.Errorf("CCX on %03b: P(%03b) = %v, want 1", in, want, p)
		}
	}
}

func TestToffoliDecompositionMatches(t *testing.T) {
	// The six-CX decomposition equals the native CCX on superpositions.
	pre := circuit.New(3)
	pre.H(0)
	pre.H(1)
	pre.RY(2, 0.7)
	native := pre.Clone()
	native.CCX(0, 1, 2)
	lowered := circuit.Decompose(native)
	if f := Run(native).FidelityWith(Run(lowered)); f < 1-1e-9 {
		t.Errorf("decomposed toffoli fidelity = %v, want 1", f)
	}
}

func TestRotationGates(t *testing.T) {
	// RX(pi) == X up to global phase.
	c := circuit.New(1)
	c.RX(0, math.Pi)
	s := Run(c)
	if p := s.Probability(1); math.Abs(p-1) > tol {
		t.Errorf("RX(pi) P(1) = %v, want 1", p)
	}
	// RZ on |+> rotates phase: RZ(pi)|+> = |-> up to phase; H then gives |1>.
	c2 := circuit.New(1)
	c2.H(0)
	c2.RZ(0, math.Pi)
	c2.H(0)
	if p := Run(c2).Probability(1); math.Abs(p-1) > tol {
		t.Errorf("H RZ(pi) H P(1) = %v, want 1", p)
	}
	// RY(pi/2) on |0> gives equal superposition with real amplitudes.
	c3 := circuit.New(1)
	c3.RY(0, math.Pi/2)
	s3 := Run(c3)
	if math.Abs(s3.Probability(0)-0.5) > tol {
		t.Errorf("RY(pi/2) P(0) = %v", s3.Probability(0))
	}
}

func TestSTGates(t *testing.T) {
	// S = T^2; S Sdg = I; T Tdg = I.
	c := circuit.New(1)
	c.H(0)
	c.T(0)
	c.T(0)
	c.Sdg(0)
	c.H(0)
	if p := Run(c).Probability(0); math.Abs(p-1) > tol {
		t.Errorf("H T T Sdg H should be identity: P(0) = %v", p)
	}
}

func TestUnitarityProperty(t *testing.T) {
	// Random circuits preserve the norm.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		c := circuit.New(n)
		names := []string{"h", "x", "t", "s", "rx", "ry", "rz"}
		for i := 0; i < 30; i++ {
			if r.Float64() < 0.3 && n >= 2 {
				a, b := r.Intn(n), r.Intn(n)
				if a != b {
					c.CX(a, b)
					continue
				}
			}
			c.Append(names[r.Intn(len(names))], r.Float64()*2*math.Pi, r.Intn(n))
		}
		return math.Abs(Run(c).Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMostProbable(t *testing.T) {
	c := circuit.New(3)
	c.X(0)
	c.X(2)
	idx, p := Run(c).MostProbable()
	if idx != 0b101 || math.Abs(p-1) > tol {
		t.Errorf("MostProbable = %03b (%v), want 101 (1)", idx, p)
	}
}

func TestMarginalProbability(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	s := Run(c)
	// Marginal of qubit 0 being 1 in a Bell state is 0.5.
	if p := s.MarginalProbability([]int{0}, []int{1}); math.Abs(p-0.5) > tol {
		t.Errorf("marginal = %v, want 0.5", p)
	}
	// Joint 11 is 0.5.
	if p := s.MarginalProbability([]int{0, 1}, []int{1, 1}); math.Abs(p-0.5) > tol {
		t.Errorf("joint = %v, want 0.5", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched marginal args should panic")
		}
	}()
	s.MarginalProbability([]int{0}, []int{1, 0})
}

func TestFidelityWith(t *testing.T) {
	a := NewState(2)
	b := NewState(2)
	if f := a.FidelityWith(b); math.Abs(f-1) > tol {
		t.Errorf("identical states fidelity = %v", f)
	}
	c := circuit.New(2)
	c.X(0)
	if f := a.FidelityWith(Run(c)); f > tol {
		t.Errorf("orthogonal states fidelity = %v", f)
	}
	defer func() {
		if recover() == nil {
			t.Error("size mismatch should panic")
		}
	}()
	a.FidelityWith(NewState(3))
}

func TestUnknownGatePanics(t *testing.T) {
	s := NewState(1)
	defer func() {
		if recover() == nil {
			t.Error("unknown gate should panic")
		}
	}()
	s.Apply(circuit.Gate{}) // the zero Gate has no opcode
}
