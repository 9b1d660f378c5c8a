package circuit

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestQASMExportBasics(t *testing.T) {
	c := New(3)
	c.H(0)
	c.RZ(1, 0.5)
	c.CX(0, 2)
	c.CCX(0, 1, 2)
	out := QASMString(c)
	for _, w := range []string{
		"OPENQASM 2.0;",
		"qreg q[3];",
		"h q[0];",
		"rz(0.5) q[1];",
		"cx q[0],q[2];",
		"ccx q[0],q[1],q[2];",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("QASM missing %q:\n%s", w, out)
		}
	}
}

// allGates returns a circuit using every gate of the vocabulary.
func allGates() *Circuit {
	c := New(4)
	c.H(0)
	c.X(1)
	c.T(2)
	c.Sdg(3)
	c.RX(0, 1.25)
	c.RY(1, -0.75)
	c.RZ(2, math.Pi/3)
	c.CX(0, 1)
	c.CZ(1, 2)
	c.SWAP(2, 3)
	c.CCX(0, 1, 3)
	return c
}

func TestQASMRoundTrip(t *testing.T) {
	c := allGates()
	parsed, err := FromQASM(strings.NewReader(QASMString(c)))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumQubits != c.NumQubits {
		t.Fatalf("round trip qubits %d != %d", parsed.NumQubits, c.NumQubits)
	}
	if len(parsed.Gates) != len(c.Gates) {
		t.Fatalf("round trip gates %d != %d", len(parsed.Gates), len(c.Gates))
	}
	for i := range c.Gates {
		a, b := c.Gates[i], parsed.Gates[i]
		if a.Name() != b.Name() || math.Abs(a.Param-b.Param) > 1e-15 {
			t.Errorf("gate %d: %v != %v", i, a, b)
		}
		for j, q := range a.Qubits() {
			if q != b.Qubits()[j] {
				t.Errorf("gate %d operand %d: %d != %d", i, j, q, b.Qubits()[j])
			}
		}
	}
}

func TestQASMRoundTripProperty(t *testing.T) {
	// Random circuits survive a round trip exactly.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		c := New(n)
		names := []string{"h", "x", "y", "z", "s", "t", "rx", "ry", "rz"}
		for i := 0; i < 25; i++ {
			switch r.Intn(3) {
			case 0:
				c.Append(names[r.Intn(len(names))], r.NormFloat64()*3, r.Intn(n))
			case 1:
				a, b := r.Intn(n), r.Intn(n)
				if a != b {
					c.CX(a, b)
				}
			default:
				a, b := r.Intn(n), r.Intn(n)
				if a != b {
					c.SWAP(a, b)
				}
			}
		}
		parsed, err := FromQASM(strings.NewReader(QASMString(c)))
		if err != nil || len(parsed.Gates) != len(c.Gates) {
			return false
		}
		for i := range c.Gates {
			if c.Gates[i].Name() != parsed.Gates[i].Name() ||
				c.Gates[i].Param != parsed.Gates[i].Param {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

const piExpressionsQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
rz(pi) q[0];
rx(pi/2) q[1];
ry(-pi/4) q[0];
rz(2*pi) q[1];
rx(pi*3/4) q[0];
`

func TestFromQASMPiExpressions(t *testing.T) {
	c, err := FromQASM(strings.NewReader(piExpressionsQASM))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Pi, math.Pi / 2, -math.Pi / 4, 2 * math.Pi, math.Pi * 3 / 4}
	if len(c.Gates) != len(want) {
		t.Fatalf("gates = %d, want %d", len(c.Gates), len(want))
	}
	for i, w := range want {
		if math.Abs(c.Gates[i].Param-w) > 1e-12 {
			t.Errorf("gate %d param = %v, want %v", i, c.Gates[i].Param, w)
		}
	}
}

const noisyQASM = `OPENQASM 2.0;
// a comment line
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0]; cx q[0],q[1];   // trailing comment
barrier q[0],q[1];
measure q[0] -> c[0];
`

func TestFromQASMIgnoresNoise(t *testing.T) {
	c, err := FromQASM(strings.NewReader(noisyQASM))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Errorf("gates = %d, want 2 (h, cx)", len(c.Gates))
	}
}

// badQASM holds inputs FromQASM must reject with an error, not a panic.
var badQASM = []string{
	"",                                // no qreg
	"h q[0];",                         // gate before qreg
	"qreg q[2];\nqreg p[3];",          // duplicate qreg
	"qreg q[0];",                      // bad size
	"qreg q[2147483648];",             // size above the operand range
	"qreg q[2];\nfrob q[0];",          // unknown gate
	"qreg q[2];\nrz(nope) q[0];",      // bad parameter
	"qreg q[2];\nrz(inf) q[0];",       // non-finite parameter
	"qreg q[2];\nrz(-nan) q[0];",      // non-finite parameter
	"qreg q[2];\ncx q[0],q[9];",       // out-of-range operand
	"qreg q[2];\nh q[5];",             // out-of-range operand
	"qreg q[2];\nh q[-1];",            // negative operand
	"qreg q[2];\ncx q[0];",            // too few operands
	"qreg q[2];\ncx q[1],q[1];",       // repeated operand
	"qreg q[2];\nrx(0.5) q[0],q[1];",  // too many operands
	"qreg q[4];\nccx q[0],q[1],q[0];", // repeated operand
}

func TestFromQASMErrors(t *testing.T) {
	for i, src := range badQASM {
		if _, err := FromQASM(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error for %q", i, src)
		} else if src != "" && !strings.Contains(err.Error(), "line ") {
			t.Errorf("case %d: error %q names no line", i, err)
		}
	}
}

// FuzzFromQASM checks that the decoder never panics and that whatever
// it accepts survives a ToQASM/FromQASM round trip bit for bit.
func FuzzFromQASM(f *testing.F) {
	f.Add(QASMString(allGates()))
	f.Add(piExpressionsQASM)
	f.Add(noisyQASM)
	for _, src := range badQASM {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := FromQASM(strings.NewReader(src))
		if err != nil {
			return
		}
		back, err := FromQASM(strings.NewReader(QASMString(c)))
		if err != nil {
			t.Fatalf("re-reading %q: %v", QASMString(c), err)
		}
		if back.NumQubits != c.NumQubits || len(back.Gates) != len(c.Gates) {
			t.Fatalf("round trip gave %d qubits, %d gates; want %d, %d",
				back.NumQubits, len(back.Gates), c.NumQubits, len(c.Gates))
		}
		for i, g := range c.Gates {
			b := back.Gates[i]
			if g.Op() != b.Op() || !slices.Equal(g.Qubits(), b.Qubits()) ||
				math.Float64bits(g.Param) != math.Float64bits(b.Param) {
				t.Errorf("gate %d: %v (param bits %x) came back as %v (%x)",
					i, g, math.Float64bits(g.Param), b, math.Float64bits(b.Param))
			}
		}
	})
}

func TestQASMStringDeterministic(t *testing.T) {
	c := New(2)
	c.H(0)
	c.CX(0, 1)
	if QASMString(c) != QASMString(c) {
		t.Error("QASM serialisation must be deterministic")
	}
}
