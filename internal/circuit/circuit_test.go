package circuit

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestNewPanicsOnZeroQubits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0 qubits")
		}
	}()
	New(0)
}

func TestNewPanicsAboveOperandRange(t *testing.T) {
	n := math.MaxInt
	if n <= math.MaxInt32 {
		t.Skip("int is 32 bits: every int fits an operand")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for %d qubits", n)
		}
	}()
	New(n)
}

// TestGateIsPointerFree pins the gate IR: a gate holding no pointer
// keeps gate lists out of the GC's mark phase and write barriers.
func TestGateIsPointerFree(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v", path, typ.Kind())
		case reflect.Array:
			walk(typ.Elem(), path+"[i]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Gate{}), "Gate")
	if size := unsafe.Sizeof(Gate{}); size > 24 {
		t.Errorf("Gate is %d bytes, want at most 24", size)
	}
}

func TestAppendValidation(t *testing.T) {
	c := New(3)
	bad := []func(){
		func() { c.Append("nope", 0, 0) },        // unknown gate
		func() { c.Append("cx", 0, 0) },          // wrong arity
		func() { c.Append("h", 0, 5) },           // out of range
		func() { c.Append("cx", 0, 1, 1) },       // repeated operand
		func() { c.Append("ccx", 0, 0, 1, 100) }, // out of range
		func() { c.Add(Op(0), 0, 0) },            // unknown opcode
		func() { c.Add(Op(200), 0, 0) },          // unknown opcode
		func() { c.Add(OpCX, 0, 0, -1) },         // out of range
	}
	for i, fn := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGateConstructorsAndCounts(t *testing.T) {
	c := New(3)
	c.H(0)
	c.X(1)
	c.RZ(2, 0.5)
	c.CX(0, 1)
	c.CX(1, 2)
	c.CCX(0, 1, 2)
	if got := c.OneQubitGates(); got != 3 {
		t.Errorf("1q = %d, want 3", got)
	}
	if got := c.TwoQubitGates(); got != 2 {
		t.Errorf("2q = %d, want 2 (ccx is 3q until decomposed)", got)
	}
}

func TestGateString(t *testing.T) {
	c := New(3)
	c.CX(1, 2)
	c.RZ(0, 0.5)
	if got := c.Gates[0].String(); got != "cx q1,q2" {
		t.Errorf("cx string = %q", got)
	}
	if got := c.Gates[1].String(); !strings.HasPrefix(got, "rz(0.500) q0") {
		t.Errorf("rz string = %q", got)
	}
}

func TestDepth(t *testing.T) {
	c := New(3)
	// Parallel H's: depth 1.
	c.H(0)
	c.H(1)
	c.H(2)
	if d := c.Depth(); d != 1 {
		t.Errorf("parallel depth = %d, want 1", d)
	}
	// A CX chain serialises.
	c.CX(0, 1)
	c.CX(1, 2)
	if d := c.Depth(); d != 3 {
		t.Errorf("chained depth = %d, want 3", d)
	}
}

func TestTwoQubitCriticalPath(t *testing.T) {
	c := New(4)
	c.H(0)
	c.CX(0, 1) // chain 1
	c.CX(1, 2) // chain 2
	c.CX(2, 3) // chain 3
	if got := c.TwoQubitCriticalPath(); got != 3 {
		t.Errorf("2q critical = %d, want 3", got)
	}
	// Parallel CX's do not extend the critical path.
	c2 := New(4)
	c2.CX(0, 1)
	c2.CX(2, 3)
	if got := c2.TwoQubitCriticalPath(); got != 1 {
		t.Errorf("parallel 2q critical = %d, want 1", got)
	}
	// 1q gates never count, even interleaved.
	c3 := New(2)
	c3.H(0)
	c3.H(0)
	c3.CX(0, 1)
	c3.H(1)
	c3.CX(0, 1)
	if got := c3.TwoQubitCriticalPath(); got != 2 {
		t.Errorf("interleaved 2q critical = %d, want 2", got)
	}
}

func TestCountsString(t *testing.T) {
	c := New(2)
	c.H(0)
	c.CX(0, 1)
	if got := c.Counts().String(); got != "1 / 1 / 1" {
		t.Errorf("counts = %q", got)
	}
}

func TestClone(t *testing.T) {
	c := New(2)
	c.H(0)
	c.CX(0, 1)
	cl := c.Clone()
	cl.X(1)
	cl.Gates[0] = cl.Gates[1]
	if len(c.Gates) != 2 || c.Gates[0].Op() != OpH {
		t.Error("Clone must not alias the original")
	}
}

func TestDecomposeSwap(t *testing.T) {
	c := New(2)
	c.SWAP(0, 1)
	d := Decompose(c)
	if !IsNative(d) {
		t.Fatal("decomposed circuit not native")
	}
	if got := d.TwoQubitGates(); got != 3 {
		t.Errorf("swap decomposes to %d CX, want 3", got)
	}
}

func TestDecomposeCZ(t *testing.T) {
	c := New(2)
	c.CZ(0, 1)
	d := Decompose(c)
	if !IsNative(d) {
		t.Fatal("decomposed circuit not native")
	}
	if d.TwoQubitGates() != 1 || d.OneQubitGates() != 2 {
		t.Errorf("cz decomposition counts = %v", d.Counts())
	}
}

func TestDecomposeToffoliCounts(t *testing.T) {
	c := New(3)
	c.CCX(0, 1, 2)
	d := Decompose(c)
	if !IsNative(d) {
		t.Fatal("decomposed circuit not native")
	}
	if got := d.TwoQubitGates(); got != 6 {
		t.Errorf("toffoli decomposes to %d CX, want 6", got)
	}
}

func TestDecomposePassthrough(t *testing.T) {
	c := New(2)
	c.H(0)
	c.RZ(1, 1.25)
	c.CX(0, 1)
	d := Decompose(c)
	if len(d.Gates) != 3 {
		t.Fatalf("passthrough changed gate count: %d", len(d.Gates))
	}
	if d.Gates[1].Param != 1.25 {
		t.Error("passthrough lost rotation parameter")
	}
}

func TestIsNative(t *testing.T) {
	c := New(3)
	c.H(0)
	c.CX(0, 1)
	if !IsNative(c) {
		t.Error("h+cx should be native")
	}
	c.SWAP(1, 2)
	if IsNative(c) {
		t.Error("swap is not native")
	}
}

func TestValueCopyNeverSharesFreeSlots(t *testing.T) {
	// Presize so both the gate list and the operand slab have free
	// tails the copy shares with the original.
	orig := New(4)
	orig.Gates = make([]Gate, 0, 8)
	orig.CX(0, 1)
	cp := *orig
	orig.CX(2, 3)
	cp.H(3)
	cp.CCX(0, 1, 2)
	orig.RZ(1, 0.5)

	check := func(name string, c *Circuit, want ...string) {
		t.Helper()
		if len(c.Gates) != len(want) {
			t.Fatalf("%s has %d gates, want %d", name, len(c.Gates), len(want))
		}
		for i, g := range c.Gates {
			if g.String() != want[i] {
				t.Errorf("%s gate %d = %q, want %q", name, i, g, want[i])
			}
		}
	}
	check("original", orig, "cx q0,q1", "cx q2,q3", "rz(0.500) q1")
	check("copy", &cp, "cx q0,q1", "h q3", "ccx q0,q1,q2")
}

func TestAppendOperandsAreCapped(t *testing.T) {
	c := New(3)
	c.CX(0, 1)
	c.CX(1, 2)
	q := c.Gates[0].Qubits()
	if len(q) != 2 || cap(q) != len(q) {
		t.Fatalf("Qubits() = %v with cap %d, want a capped 2-operand view", q, cap(q))
	}
	// Growing or editing the view must reach neither gate.
	_ = append(q, 2)
	q[0] = 2
	if got := c.Gates[0].String(); got != "cx q0,q1" {
		t.Errorf("first gate = %q after editing its operand view", got)
	}
	if got := c.Gates[1].String(); got != "cx q1,q2" {
		t.Errorf("second gate = %q after appending to the first's operands", got)
	}
}

// benchCircuit returns a mixed circuit over 64 qubits: 1q rotations,
// CX, CZ, SWAP and Toffoli gates, the shapes the benchmark suite uses.
func benchCircuit() *Circuit {
	const n = 64
	c := New(n)
	for i := 0; i < 1000; i++ {
		q := i % n
		switch i % 5 {
		case 0:
			c.H(q)
		case 1:
			c.RZ(q, 0.25)
		case 2:
			c.CX(q, (q+1)%n)
		case 3:
			c.SWAP(q, (q+7)%n)
		default:
			c.CCX(q, (q+1)%n, (q+2)%n)
		}
	}
	return c
}

// BenchmarkAppend builds a 1000-gate circuit through the constructors.
func BenchmarkAppend(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		benchCircuit()
	}
}

// BenchmarkDecompose lowers a 1000-gate circuit to the native basis.
func BenchmarkDecompose(b *testing.B) {
	c := benchCircuit()
	b.ReportAllocs()
	for b.Loop() {
		Decompose(c)
	}
}
