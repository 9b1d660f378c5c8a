package graph

import (
	"math"
	"math/rand"
	"testing"
)

// unitWeight treats every edge as cost 1, reducing Dijkstra to BFS.
func unitWeight(u, v int) float64 { return 1 }

func TestShortestPathWeightedPrefersCheapDetour(t *testing.T) {
	// 0-1 expensive direct edge; 0-2-1 cheap detour.
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	w := func(u, v int) float64 {
		if (u == 0 && v == 1) || (u == 1 && v == 0) {
			return 10
		}
		return 1
	}
	path, cost := g.ShortestPathWeighted(0, 1, w)
	if len(path) != 3 || path[1] != 2 {
		t.Errorf("path = %v, want detour via 2", path)
	}
	if cost != 2 {
		t.Errorf("cost = %v, want 2", cost)
	}
}

func TestShortestPathWeightedUniformMatchesBFS(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(25)
		g := New(n)
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
		path, cost := g.ShortestPathWeighted(src, dst, unitWeight)
		bfs := g.BFSFrom(src)[dst]
		if int(cost) != bfs || len(path)-1 != bfs {
			t.Fatalf("uniform dijkstra cost %v != bfs %d", cost, bfs)
		}
	}
}

func TestShortestPathWeightedTrivialAndUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if p, c := g.ShortestPathWeighted(2, 2, unitWeight); len(p) != 1 || c != 0 {
		t.Errorf("trivial = %v, %v", p, c)
	}
	if p, c := g.ShortestPathWeighted(0, 2, unitWeight); p != nil || !math.IsInf(c, 1) {
		t.Errorf("unreachable = %v, %v", p, c)
	}
}

func TestShortestPathWeightedIsValidWalk(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(20)
		g := New(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		for k := 0; k < n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		weights := map[Edge]float64{}
		for _, e := range g.Edges() {
			weights[e] = r.Float64() * 5
		}
		w := func(u, v int) float64 { return weights[NewEdge(u, v)] }
		src, dst := r.Intn(n), r.Intn(n)
		path, cost := g.ShortestPathWeighted(src, dst, w)
		if path == nil {
			t.Fatal("connected graph must have a path")
		}
		var sum float64
		for i := 0; i+1 < len(path); i++ {
			if !g.HasEdge(path[i], path[i+1]) {
				t.Fatalf("non-edge %d-%d in path", path[i], path[i+1])
			}
			sum += w(path[i], path[i+1])
		}
		if math.Abs(sum-cost) > 1e-9 {
			t.Fatalf("path cost %v != reported %v", sum, cost)
		}
	}
}

func TestShortestPathWeightedNegativePanics(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative weight")
		}
	}()
	g.ShortestPathWeighted(0, 1, func(u, v int) float64 { return -1 })
}

func TestShortestPathWeightedDeterministicTies(t *testing.T) {
	// Two equal-cost routes: tie-break must be stable across calls.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	p1, _ := g.ShortestPathWeighted(0, 3, unitWeight)
	p2, _ := g.ShortestPathWeighted(0, 3, unitWeight)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("tie-breaking is unstable")
		}
	}
}
