package compiler

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
	"chipletqc/internal/topo"
)

// oracleCenter is the layout center the compiler used before the routing
// table: a BFSFrom sweep for the vertex of minimum eccentricity.
func oracleCenter(dev *topo.Device) int {
	best, bestEcc := 0, int(^uint(0)>>1)
	for v := 0; v < dev.N; v++ {
		ecc := 0
		for _, d := range dev.G.BFSFrom(v) {
			if d > ecc {
				ecc = d
			}
		}
		if ecc < bestEcc {
			best, bestEcc = v, ecc
		}
	}
	return best
}

// oracleOrder is the BFS discovery order from src with sorted neighbour
// visits, as the compiler computed it before the routing table.
func oracleOrder(dev *topo.Device, src int) []int {
	seen := make([]bool, dev.N)
	order := make([]int, 0, dev.N)
	queue := []int{src}
	seen[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		nbrs := append([]int(nil), dev.G.Neighbors(v)...)
		sort.Ints(nbrs)
		for _, w := range nbrs {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// routerDevices are the device shapes the compiler sees: every paper
// system up to 100 qubits and its monolithic counterpart, the Table II
// 2x2 systems, and one device per generated lattice family.
func routerDevices(t *testing.T) []*topo.Device {
	t.Helper()
	var devs []*topo.Device
	for _, g := range mcm.EnumerateGridsFrom(topo.Catalog, 100) {
		devs = append(devs, mcm.MustBuild(g), topo.MonolithicDevice(g.MonolithicCounterpart()))
	}
	for _, q := range []int{10, 20, 40, 60, 90} {
		spec, err := topo.SpecForQubits(q)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: spec}))
	}
	for _, fam := range topo.LatticeFamilies() {
		spec := topo.LatticeSpec{Family: fam, Rows: 2, Cols: 2, ChipQubits: 10}
		if fam == topo.FamilyStack3D {
			spec.Layers = 2
		}
		dev, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		devs = append(devs, dev)
	}
	return devs
}

// checkRouterAgainstOracle asserts the routing table agrees with
// graph.ShortestPath and HasEdge on every ordered pair, and that its
// layout order is the oracle's.
func checkRouterAgainstOracle(t *testing.T, dev *topo.Device) {
	t.Helper()
	rt := newRouter(dev.G)
	for u := 0; u < dev.N; u++ {
		for v := 0; v < dev.N; v++ {
			i := u*dev.N + v
			path := dev.G.ShortestPath(u, v)
			wantDist, wantNext := int32(len(path)-1), int32(-1)
			switch {
			case path == nil:
				wantDist = -1
			case u == v:
				wantNext = int32(u)
			default:
				wantNext = int32(path[1])
			}
			if rt.dist[i] != wantDist || rt.next[i] != wantNext {
				t.Fatalf("%s (%d,%d): dist %d next %d, ShortestPath %v",
					dev.Name, u, v, rt.dist[i], rt.next[i], path)
			}
			if (rt.dist[i] == 1) != dev.G.HasEdge(u, v) {
				t.Fatalf("%s (%d,%d): dist %d disagrees with HasEdge", dev.Name, u, v, rt.dist[i])
			}
		}
	}
	want := oracleOrder(dev, oracleCenter(dev))
	if fmt.Sprint(rt.order) != fmt.Sprint(want) {
		t.Fatalf("%s: layout order %v, oracle %v", dev.Name, rt.order, want)
	}
}

func TestRouterMatchesShortestPathOracle(t *testing.T) {
	for _, dev := range routerDevices(t) {
		checkRouterAgainstOracle(t, dev)
	}
}

// twoIslands is a 4-qubit device with couplings {0-1, 2-3}: no component
// holds more than two qubits.
func twoIslands() *topo.Device {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	return &topo.Device{Name: "two-islands", N: 4, G: g}
}

func TestRouterOnDisconnectedDevice(t *testing.T) {
	checkRouterAgainstOracle(t, twoIslands())
}

// A circuit wider than the center's component must be rejected: the
// layout cannot place it without mapping two logical qubits to one
// physical qubit.
func TestCompileRejectsTooDisconnectedDevice(t *testing.T) {
	dev := twoIslands()
	crossing := circuit.New(3)
	crossing.CX(0, 2) // routes between the duplicated qubits
	untouched := circuit.New(3)
	untouched.CX(0, 1) // never touches logical 2
	cp := New(dev, Options{})
	for _, c := range []*circuit.Circuit{crossing, untouched} {
		r, err := Compile(c, dev)
		if err == nil {
			t.Errorf("%v: compiled with initial layout %v, want an error", c.Gates, r.InitialLayout)
			continue
		}
		for _, want := range []string{`"two-islands"`, "reaches only 2", "needs 3"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%v: error %q does not mention %s", c.Gates, err, want)
			}
		}
		// Route rejects the circuit with the same error, visiting nothing.
		visits := 0
		if rerr := cp.Route(c, func(u, v int) { visits++ }); rerr == nil || rerr.Error() != err.Error() || visits != 0 {
			t.Errorf("%v: Route error %v after %d visits, want %q and none", c.Gates, rerr, visits, err)
		}
	}

	// A circuit that fits the center's component still compiles.
	fits := circuit.New(2)
	fits.CX(1, 0)
	r, err := Compile(fits, dev)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r.InitialLayout) != "[0 1]" || r.SwapsInserted != 0 {
		t.Errorf("layout %v with %d swaps, want [0 1] with none", r.InitialLayout, r.SwapsInserted)
	}
	if got := routeVisits(t, cp, fits); fmt.Sprint(got) != "[1 0]" {
		t.Errorf("Route visits %v, want [1 0]", got)
	}
}
