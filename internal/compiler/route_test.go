package compiler

import (
	"slices"
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
	"chipletqc/internal/topo"
)

// routeVisits returns every (u, v) Route visits, flattened.
func routeVisits(t *testing.T, cp *Compiler, c *circuit.Circuit) []int {
	t.Helper()
	var got []int
	if err := cp.Route(c, func(u, v int) { got = append(got, u, v) }); err != nil {
		t.Fatal(err)
	}
	return got
}

// compiledPairs returns the (u, v) of every two-qubit gate of r's
// compiled circuit in gate order, flattened.
func compiledPairs(r *Result) []int {
	var want []int
	for _, g := range r.Compiled.Gates {
		if g.IsTwoQubit() {
			q := g.Qubits()
			want = append(want, int(q[0]), int(q[1]))
		}
	}
	return want
}

// TestRouteMatchesCompile: on every Fig. 10 system up to 100 qubits and
// its monolithic counterpart, for every suite benchmark under both
// routing paths, Route visits exactly Compile's two-qubit gates, in
// order and with their operand order, and as many as Counts.TwoQ.
func TestRouteMatchesCompile(t *testing.T) {
	for _, g := range mcm.EnumerateGridsFrom(topo.Catalog, 100) {
		width := qbench.UtilizedQubits(g.Qubits())
		var circuits []*circuit.Circuit
		for _, bs := range qbench.Suite() {
			circuits = append(circuits, bs.Generate(width, 3))
		}
		for _, dev := range []*topo.Device{mcm.MustBuild(g), topo.MonolithicDevice(g.MonolithicCounterpart())} {
			for _, opts := range []Options{{}, {EdgeCost: LinkAwareCost(dev, 4)}} {
				cp := New(dev, opts)
				for i, c := range circuits {
					r, err := cp.Compile(c)
					if err != nil {
						t.Fatalf("%v %s: %v", g, qbench.Suite()[i].Short, err)
					}
					got, want := routeVisits(t, cp, c), compiledPairs(r)
					if !slices.Equal(got, want) {
						t.Errorf("%s %s (weighted=%v): Route visits differ from Compile's 2q gates",
							dev.Name, qbench.Suite()[i].Short, opts.EdgeCost != nil)
					}
					if len(got)/2 != r.Counts.TwoQ {
						t.Errorf("%s %s: %d visits, Counts.TwoQ %d", dev.Name, qbench.Suite()[i].Short, len(got)/2, r.Counts.TwoQ)
					}
				}
			}
		}
	}
}

// Route lowers a non-native circuit exactly as Compile does.
func TestRouteLowersNonNativeGates(t *testing.T) {
	dev := mcm.MustBuild(mcm.Grid{Rows: 1, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	c := circuit.New(6)
	c.CCX(0, 3, 5)
	c.SWAP(1, 4)
	c.CZ(5, 2)
	c.H(0)
	c.CX(4, 0)
	if circuit.IsNative(c) {
		t.Fatal("test circuit is native")
	}
	cp := New(dev, Options{})
	r, err := cp.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := routeVisits(t, cp, c), compiledPairs(r); !slices.Equal(got, want) {
		t.Errorf("Route visits %v, Compile's 2q gates %v", got, want)
	}
}
