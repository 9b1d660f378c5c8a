package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// path builds a path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge(5,2) = %+v, want {2 5}", e)
	}
}

func TestNewEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on self-loop")
		}
	}()
	NewEdge(3, 3)
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 1)
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestHasEdge(t *testing.T) {
	g := path(3)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("0-2 should not be an edge")
	}
	if g.HasEdge(0, 0) || g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("degenerate HasEdge queries should be false")
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 2)
	g.AddEdge(1, 0)
	g.AddEdge(2, 0)
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {2, 3}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v, want %v", es, want)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("Edges[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestBFSFrom(t *testing.T) {
	g := path(4)
	d := g.BFSFrom(0)
	for i, want := range []int{0, 1, 2, 3} {
		if d[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	// Disconnected vertex.
	g2 := New(3)
	g2.AddEdge(0, 1)
	if d := g2.BFSFrom(0); d[2] != -1 {
		t.Errorf("unreachable vertex dist = %d, want -1", d[2])
	}
}

func TestShortestPath(t *testing.T) {
	// 0-1-2-3 plus chord 0-3: shortest 0->3 is direct.
	g := path(4)
	g.AddEdge(0, 3)
	p := g.ShortestPath(0, 3)
	if len(p) != 2 || p[0] != 0 || p[1] != 3 {
		t.Errorf("ShortestPath = %v, want [0 3]", p)
	}
	if p := g.ShortestPath(2, 2); len(p) != 1 || p[0] != 2 {
		t.Errorf("trivial path = %v, want [2]", p)
	}
	g2 := New(2)
	if p := g2.ShortestPath(0, 1); p != nil {
		t.Errorf("unreachable path = %v, want nil", p)
	}
}

func TestShortestPathIsValidWalk(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(30)
		g := New(n)
		// Random connected-ish graph: spanning path plus extras.
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		for k := 0; k < n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		src, dst := r.Intn(n), r.Intn(n)
		p := g.ShortestPath(src, dst)
		if p == nil {
			t.Fatalf("path in connected graph should exist")
		}
		if p[0] != src || p[len(p)-1] != dst {
			t.Fatalf("path endpoints wrong: %v (src=%d dst=%d)", p, src, dst)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("path uses non-edge %d-%d", p[i], p[i+1])
			}
		}
		// Length must equal BFS distance.
		if d := g.BFSFrom(src)[dst]; len(p)-1 != d {
			t.Fatalf("path length %d != BFS dist %d", len(p)-1, d)
		}
	}
}

func TestConnectedAndDiameter(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Error("trivial graphs are connected")
	}
	g := path(5)
	if !g.Connected() {
		t.Error("path should be connected")
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("path diameter = %d, want 4", d)
	}
	g2 := New(3)
	g2.AddEdge(0, 1)
	if g2.Connected() {
		t.Error("graph with isolated vertex is not connected")
	}
	if d := g2.Diameter(); d != -1 {
		t.Errorf("disconnected diameter = %d, want -1", d)
	}
	if d := New(0).Diameter(); d != -1 {
		t.Errorf("empty diameter = %d, want -1", d)
	}
}

// refGraph is a map-backed reference for the adjacency-only Graph: an
// edge set plus per-vertex insertion-ordered neighbour lists.
type refGraph struct {
	n     int
	edges map[Edge]bool
	adj   [][]int
}

func newRefGraph(n int) *refGraph {
	return &refGraph{n: n, edges: map[Edge]bool{}, adj: make([][]int, n)}
}

func (r *refGraph) add(u, v int) {
	e := NewEdge(u, v)
	if r.edges[e] {
		return
	}
	r.edges[e] = true
	r.adj[u] = append(r.adj[u], v)
	r.adj[v] = append(r.adj[v], u)
}

func (r *refGraph) sortedEdges() []Edge {
	out := make([]Edge, 0, len(r.edges))
	for e := range r.edges {
		out = append(out, e)
	}
	SortEdges(out)
	return out
}

// TestGraphMatchesMapOracle inserts random edge sequences, with
// duplicates and both orientations, into Graph and into the map-backed
// reference, then checks every query against the reference.
func TestGraphMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(24)
		g, ref := New(n), newRefGraph(n)
		if n > 1 {
			for k := r.Intn(4 * n); k > 0; k-- {
				u, v := r.Intn(n), r.Intn(n)
				if u == v {
					continue
				}
				g.AddEdge(u, v)
				ref.add(u, v)
				if r.Intn(3) == 0 { // re-insert, sometimes reversed
					if r.Intn(2) == 0 {
						u, v = v, u
					}
					g.AddEdge(u, v)
				}
			}
		}
		if g.M() != len(ref.edges) {
			t.Fatalf("trial %d: M = %d, want %d", trial, g.M(), len(ref.edges))
		}
		for u := -1; u <= n; u++ {
			for v := -1; v <= n; v++ {
				want := u != v && u >= 0 && v >= 0 && u < n && v < n && ref.edges[NewEdge(u, v)]
				if got := g.HasEdge(u, v); got != want {
					t.Fatalf("trial %d: HasEdge(%d, %d) = %v, want %v", trial, u, v, got, want)
				}
			}
		}
		es := g.Edges()
		want := ref.sortedEdges()
		if !slices.Equal(es, want) {
			t.Fatalf("trial %d: Edges = %v, want %v", trial, es, want)
		}
		for i := 1; i < len(es); i++ {
			if a, b := es[i-1], es[i]; a.U > b.U || (a.U == b.U && a.V >= b.V) {
				t.Fatalf("trial %d: Edges not strictly sorted at %d: %v, %v", trial, i, a, b)
			}
		}
		for i := range es {
			es[i] = Edge{U: -7, V: -7}
		}
		if again := g.Edges(); !slices.Equal(again, want) {
			t.Fatalf("trial %d: mutating the Edges result changed the graph: %v", trial, again)
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(g.Neighbors(v), ref.adj[v]) {
				t.Fatalf("trial %d: Neighbors(%d) = %v, want insertion order %v",
					trial, v, g.Neighbors(v), ref.adj[v])
			}
		}
	}
}

func TestDegreeSumProperty(t *testing.T) {
	// Handshake lemma: sum of degrees = 2 * |E| on random graphs.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := New(n)
		for k := 0; k < 2*n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVertexRangePanics(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 2) },
		func() { g.AddEdge(-1, 0) },
		func() { g.AddEdge(1, 1) }, // self-loop
		func() { g.Neighbors(-1) },
		func() { g.Degree(5) },
		func() { g.BFSFrom(2) },
		func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected out-of-range or self-loop panic")
				}
			}()
			fn()
		}()
	}
}
