// Package qsim is a dense statevector simulator used to verify that the
// benchmark circuit generators are semantically correct (GHZ prepares
// cat states, Bernstein-Vazirani recovers the hidden string, the Cuccaro
// adder adds, and so on). The paper itself never simulates states — its
// devices exceed simulable sizes — so this package is a validation
// substrate only and is sized for <= ~20 qubits.
//
// Qubit 0 is the least significant bit of the basis-state index.
package qsim

import (
	"fmt"
	"math"
	"math/cmplx"

	"chipletqc/internal/circuit"
)

// MaxQubits bounds the simulator; 2^24 amplitudes is ~256 MiB.
const MaxQubits = 24

// State is a pure quantum state over n qubits.
type State struct {
	n   int
	amp []complex128
}

// NewState prepares |0...0> over n qubits.
func NewState(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("qsim: qubit count %d outside [1, %d]", n, MaxQubits))
	}
	amp := make([]complex128, 1<<uint(n))
	amp[0] = 1
	return &State{n: n, amp: amp}
}

// NumQubits returns the number of qubits.
func (s *State) NumQubits() int { return s.n }

// Amplitude returns the amplitude of basis state idx.
func (s *State) Amplitude(idx int) complex128 { return s.amp[idx] }

// Probability returns |amplitude|^2 of basis state idx.
func (s *State) Probability(idx int) float64 {
	a := s.amp[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full probability vector.
func (s *State) Probabilities() []float64 {
	out := make([]float64, len(s.amp))
	for i := range s.amp {
		out[i] = s.Probability(i)
	}
	return out
}

// Norm returns the state norm (1 for any valid evolution).
func (s *State) Norm() float64 {
	var sum float64
	for i := range s.amp {
		sum += s.Probability(i)
	}
	return math.Sqrt(sum)
}

// apply1Q applies the 2x2 matrix [[a b][c d]] to qubit q.
func (s *State) apply1Q(q int, a, b, cc, d complex128) {
	bit := 1 << uint(q)
	for i := 0; i < len(s.amp); i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		x, y := s.amp[i], s.amp[j]
		s.amp[i] = a*x + b*y
		s.amp[j] = cc*x + d*y
	}
}

// applyCX applies CX with the given control and target.
func (s *State) applyCX(ctrl, tgt int) {
	cb, tb := 1<<uint(ctrl), 1<<uint(tgt)
	for i := 0; i < len(s.amp); i++ {
		if i&cb != 0 && i&tb == 0 {
			j := i | tb
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

// applyCZ applies CZ on the qubit pair.
func (s *State) applyCZ(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := 0; i < len(s.amp); i++ {
		if i&ab != 0 && i&bb != 0 {
			s.amp[i] = -s.amp[i]
		}
	}
}

// applySWAP exchanges two qubits.
func (s *State) applySWAP(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := 0; i < len(s.amp); i++ {
		hasA, hasB := i&ab != 0, i&bb != 0
		if hasA && !hasB {
			j := (i &^ ab) | bb
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

// applyCCX applies the Toffoli gate.
func (s *State) applyCCX(c1, c2, tgt int) {
	b1, b2, tb := 1<<uint(c1), 1<<uint(c2), 1<<uint(tgt)
	for i := 0; i < len(s.amp); i++ {
		if i&b1 != 0 && i&b2 != 0 && i&tb == 0 {
			j := i | tb
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

var (
	sqrt2inv = complex(1/math.Sqrt2, 0)
)

// Apply executes one gate. Unknown opcodes panic: the simulator and
// the circuit package share one gate vocabulary by construction.
func (s *State) Apply(g circuit.Gate) {
	q := g.Qubits()
	switch g.Op() {
	case circuit.OpH:
		s.apply1Q(int(q[0]), sqrt2inv, sqrt2inv, sqrt2inv, -sqrt2inv)
	case circuit.OpX, circuit.OpY, circuit.OpZ:
		s.applyPauli(g.Op(), int(q[0]))
	case circuit.OpS:
		s.apply1Q(int(q[0]), 1, 0, 0, complex(0, 1))
	case circuit.OpSdg:
		s.apply1Q(int(q[0]), 1, 0, 0, complex(0, -1))
	case circuit.OpT:
		s.apply1Q(int(q[0]), 1, 0, 0, cmplx.Exp(complex(0, math.Pi/4)))
	case circuit.OpTdg:
		s.apply1Q(int(q[0]), 1, 0, 0, cmplx.Exp(complex(0, -math.Pi/4)))
	case circuit.OpRX:
		c := complex(math.Cos(g.Param/2), 0)
		ims := complex(0, -math.Sin(g.Param/2))
		s.apply1Q(int(q[0]), c, ims, ims, c)
	case circuit.OpRY:
		c := complex(math.Cos(g.Param/2), 0)
		sn := complex(math.Sin(g.Param/2), 0)
		s.apply1Q(int(q[0]), c, -sn, sn, c)
	case circuit.OpRZ:
		s.apply1Q(int(q[0]),
			cmplx.Exp(complex(0, -g.Param/2)), 0,
			0, cmplx.Exp(complex(0, g.Param/2)))
	case circuit.OpCX:
		s.applyCX(int(q[0]), int(q[1]))
	case circuit.OpCZ:
		s.applyCZ(int(q[0]), int(q[1]))
	case circuit.OpSWAP:
		s.applySWAP(int(q[0]), int(q[1]))
	case circuit.OpCCX:
		s.applyCCX(int(q[0]), int(q[1]), int(q[2]))
	default:
		panic(fmt.Sprintf("qsim: unsupported gate %v", g.Op()))
	}
}

// applyPauli applies the X, Y or Z gate op to qubit q.
func (s *State) applyPauli(op circuit.Op, q int) {
	switch op {
	case circuit.OpX:
		s.apply1Q(q, 0, 1, 1, 0)
	case circuit.OpY:
		s.apply1Q(q, 0, complex(0, -1), complex(0, 1), 0)
	case circuit.OpZ:
		s.apply1Q(q, 1, 0, 0, -1)
	}
}

// Run executes an entire circuit on a fresh |0...0> state.
func Run(c *circuit.Circuit) *State {
	s := NewState(c.NumQubits)
	for _, g := range c.Gates {
		s.Apply(g)
	}
	return s
}

// MostProbable returns the basis state with the highest probability and
// that probability.
func (s *State) MostProbable() (int, float64) {
	best, bestP := 0, 0.0
	for i := range s.amp {
		if p := s.Probability(i); p > bestP {
			best, bestP = i, p
		}
	}
	return best, bestP
}

// MarginalProbability returns the probability that the given qubits read
// the given bit values on measurement.
func (s *State) MarginalProbability(qubits []int, bits []int) float64 {
	if len(qubits) != len(bits) {
		panic("qsim: qubits and bits length mismatch")
	}
	var sum float64
	for i := range s.amp {
		match := true
		for k, q := range qubits {
			if (i>>uint(q))&1 != bits[k] {
				match = false
				break
			}
		}
		if match {
			sum += s.Probability(i)
		}
	}
	return sum
}

// FidelityWith returns |<s|o>|^2.
func (s *State) FidelityWith(o *State) float64 {
	if s.n != o.n {
		panic("qsim: state size mismatch")
	}
	var ip complex128
	for i := range s.amp {
		ip += cmplx.Conj(s.amp[i]) * o.amp[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}
