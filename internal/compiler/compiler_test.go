package compiler

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
	"chipletqc/internal/qsim"
	"chipletqc/internal/topo"
)

func TestCompileRejectsOversizedCircuit(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	if _, err := Compile(circuit.New(11), dev); err == nil {
		t.Error("expected error for 11-qubit circuit on 10-qubit device")
	}
}

// checkRouted asserts every 2q gate of a compiled circuit lands on a
// coupled pair.
func checkRouted(t *testing.T, r *Result, dev *topo.Device) {
	t.Helper()
	for _, g := range r.Compiled.Gates {
		if g.IsTwoQubit() && !dev.G.HasEdge(int(g.Qubits()[0]), int(g.Qubits()[1])) {
			t.Fatalf("gate %v not on a device coupling", g)
		}
	}
}

func TestCompileRoutesAllGates(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	for _, spec := range qbench.Suite() {
		c := spec.Generate(qbench.UtilizedQubits(dev.N), 3)
		r, err := Compile(c, dev)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		checkRouted(t, r, dev)
		if r.Counts.TwoQ < c.TwoQubitGates() {
			t.Errorf("%s: compiled 2q %d below logical %d",
				spec.Name, r.Counts.TwoQ, c.TwoQubitGates())
		}
	}
}

func TestCompileOnMCMDevice(t *testing.T) {
	dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	c := qbench.GHZ(qbench.UtilizedQubits(dev.N))
	r, err := Compile(circuit.Decompose(c), dev)
	if err != nil {
		t.Fatal(err)
	}
	checkRouted(t, r, dev)
	// The GHZ chain must cross chips: some compiled gates use links.
	usesLink := false
	for _, g := range r.Compiled.Gates {
		if g.IsTwoQubit() && dev.IsLink(int(g.Qubits()[0]), int(g.Qubits()[1])) {
			usesLink = true
			break
		}
	}
	if !usesLink {
		t.Error("64-qubit GHZ on a 4x20q MCM should traverse inter-chip links")
	}
}

func TestLayoutBijection(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	c := qbench.QAOA(16, 1, 5)
	r, err := Compile(circuit.Decompose(c), dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range [][]int{r.InitialLayout, r.FinalLayout} {
		if len(layout) != 16 {
			t.Fatalf("layout size %d", len(layout))
		}
		seen := map[int]bool{}
		for _, p := range layout {
			if p < 0 || p >= dev.N {
				t.Fatalf("physical qubit %d out of range", p)
			}
			if seen[p] {
				t.Fatalf("layout maps two logicals to physical %d", p)
			}
			seen[p] = true
		}
	}
}

func TestCompiledSemanticsPreserved(t *testing.T) {
	// Compile GHZ(5) onto the 10-qubit chip and verify by simulation
	// that the final layout qubits hold a GHZ state.
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	c := circuit.Decompose(qbench.GHZ(5))
	r, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	s := qsim.Run(r.Compiled)
	qs := r.FinalLayout
	all0 := make([]int, 5)
	all1 := []int{1, 1, 1, 1, 1}
	p0 := s.MarginalProbability(qs, all0)
	p1 := s.MarginalProbability(qs, all1)
	if math.Abs(p0-0.5) > 1e-9 || math.Abs(p1-0.5) > 1e-9 {
		t.Errorf("compiled GHZ marginals: P(00000)=%v P(11111)=%v, want 0.5", p0, p1)
	}
}

func TestCompiledBVSemanticsPreserved(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	hidden := uint64(0b1011)
	c := circuit.Decompose(qbench.BV(5, hidden))
	r, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	s := qsim.Run(r.Compiled)
	qs := make([]int, 4)
	bits := make([]int, 4)
	for i := 0; i < 4; i++ {
		qs[i] = r.FinalLayout[i]
		bits[i] = int(hidden >> uint(i) & 1)
	}
	if p := s.MarginalProbability(qs, bits); math.Abs(p-1) > 1e-9 {
		t.Errorf("compiled BV recovers hidden with P=%v, want 1", p)
	}
}

func TestAdjacentGatesNeedNoSwaps(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	// A circuit acting only on one logical qubit pair that the layout
	// places adjacently: two qubits, one CX.
	c := circuit.New(2)
	c.CX(0, 1)
	r, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if r.SwapsInserted != 0 {
		t.Errorf("swaps = %d, want 0 (layout should be contiguous)", r.SwapsInserted)
	}
	if r.Counts.TwoQ != 1 {
		t.Errorf("compiled 2q = %d, want 1", r.Counts.TwoQ)
	}
}

func TestSwapAccounting(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	c := qbench.QAOA(16, 1, 11)
	lowered := circuit.Decompose(c)
	r, err := Compile(lowered, dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Counts.TwoQ; got != lowered.TwoQubitGates()+3*r.SwapsInserted {
		t.Errorf("2q accounting: compiled %d != logical %d + 3*swaps %d",
			got, lowered.TwoQubitGates(), r.SwapsInserted)
	}
}

func TestDeterministicCompilation(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	c := circuit.Decompose(qbench.Primacy(16, 6, 2))
	r1, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Compiled.Gates) != len(r2.Compiled.Gates) {
		t.Error("compilation not deterministic")
	}
}

func TestCountsMatchCompiledCircuit(t *testing.T) {
	dev := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	c := circuit.Decompose(qbench.TFIM(12, 2, 0.1, 1, 1))
	r, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts != r.Compiled.Counts() {
		t.Errorf("cached counts %v != recomputed %v", r.Counts, r.Compiled.Counts())
	}
}

func TestCompilerMatchesCompile(t *testing.T) {
	// One Compiler serves the whole suite; each result must equal a
	// fresh package-level compile's, under both routing paths.
	dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	width := qbench.UtilizedQubits(dev.N)
	for _, opts := range []Options{{}, {EdgeCost: LinkAwareCost(dev, 4)}} {
		cp := New(dev, opts)
		for _, bs := range qbench.Suite() {
			c := bs.Generate(width, 5)
			got, err := cp.Compile(c)
			if err != nil {
				t.Fatalf("%s: %v", bs.Short, err)
			}
			want, err := CompileWithOptions(c, dev, opts)
			if err != nil {
				t.Fatalf("%s: %v", bs.Short, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (weighted=%v): Compiler.Compile differs from CompileWithOptions",
					bs.Short, opts.EdgeCost != nil)
			}
			if opts.EdgeCost == nil {
				if plain, err := Compile(c, dev); err != nil || !reflect.DeepEqual(got, plain) {
					t.Errorf("%s: Compiler.Compile differs from Compile (err %v)", bs.Short, err)
				}
				// The dry routing pass sizes the output exactly.
				if n := len(got.Compiled.Gates); cap(got.Compiled.Gates) != n {
					t.Errorf("%s: compiled gate list has cap %d for %d gates", bs.Short, cap(got.Compiled.Gates), n)
				}
			}
		}
	}
}

func TestCompilerConcurrentUse(t *testing.T) {
	dev := mcm.MustBuild(mcm.Grid{Rows: 1, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	cp := New(dev, Options{})
	width := qbench.UtilizedQubits(dev.N)
	var circuits []*circuit.Circuit
	var want []*Result
	var wantPairs [][]int
	for _, bs := range qbench.Suite() {
		c := bs.Generate(width, 7)
		r, err := cp.Compile(c)
		if err != nil {
			t.Fatalf("%s: %v", bs.Short, err)
		}
		circuits, want = append(circuits, c), append(want, r)
		wantPairs = append(wantPairs, compiledPairs(r))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range circuits {
				if r, err := cp.Compile(c); err != nil || !reflect.DeepEqual(r, want[i]) {
					t.Errorf("concurrent compile %d differs from serial (err %v)", i, err)
				}
				var pairs []int
				err := cp.Route(c, func(u, v int) { pairs = append(pairs, u, v) })
				if err != nil || !slices.Equal(pairs, wantPairs[i]) {
					t.Errorf("concurrent route %d differs from serial compile (err %v)", i, err)
				}
			}
		}()
	}
	wg.Wait()
}
