// Package graph implements the small undirected-graph toolkit used by the
// topology, compiler, and evaluation layers: adjacency storage, BFS,
// all-pairs shortest paths on demand, diameter, and connectivity checks.
//
// Vertices are dense integers [0, N). Edges are unordered pairs; the
// package canonicalises them so (u, v) and (v, u) are the same edge.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Edge is an unordered pair of vertices, stored canonically with U < V.
type Edge struct {
	U, V int
}

// NewEdge canonicalises the endpoint order. It panics when u == v:
// self-loops never occur in qubit coupling maps and always indicate a
// construction bug upstream.
func NewEdge(u, v int) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Graph is an undirected simple graph over vertices [0, N).
//
// Adjacency lists are the only edge storage: coupling maps have small
// degree (at most 6 in any generated family), so duplicate detection and
// HasEdge scan a list instead of hashing into an edge set, and Edges
// derives the sorted edge list from the lists without a map or a sort
// over all edges.
type Graph struct {
	n   int
	adj [][]int
	m   int
}

// New creates an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	// Each adjacency list starts as a capacity-capped window of one
	// shared slab, so building a graph allocates once instead of once or
	// twice per vertex. A vertex whose degree outgrows its window moves
	// to its own array on append; its neighbours' windows are untouched.
	slab := make([]int, slabDegree*n)
	adj := make([][]int, n)
	for v := range adj {
		adj[v] = slab[v*slabDegree : v*slabDegree : (v+1)*slabDegree]
	}
	return &Graph{n: n, adj: adj}
}

// slabDegree is the adjacency capacity New reserves per vertex: the
// largest degree of the heavy-hex, hex and square families.
const slabDegree = 4

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge (u, v). Duplicate insertions are
// no-ops so construction code can be written without dedup bookkeeping.
func (g *Graph) AddEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if slices.Contains(g.adj[u], v) {
		return
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	if len(g.adj[v]) < len(g.adj[u]) {
		u, v = v, u
	}
	return slices.Contains(g.adj[u], v)
}

// Neighbors returns the adjacency list of v, in edge insertion order.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// MaxDegree returns the largest vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Edges returns all edges in deterministic (U, V) order, as a fresh
// slice the caller owns. Walking U in ascending order and sorting each
// vertex's short run of higher neighbours gives the same order as a
// global SortEdges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u, nbrs := range g.adj {
		run := len(out)
		for _, v := range nbrs {
			if v < u {
				continue
			}
			// Insertion sort by V within u's run: runs are a few edges long.
			i := len(out)
			out = append(out, Edge{})
			for ; i > run && out[i-1].V > v; i-- {
				out[i] = out[i-1]
			}
			out[i] = Edge{U: u, V: v}
		}
	}
	return out
}

// SortEdges sorts edges by (U, V), the deterministic order Edges uses.
func SortEdges(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// BFSFrom returns the BFS distance from src to every vertex; unreachable
// vertices get -1.
func (g *Graph) BFSFrom(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// ShortestPath returns one shortest path from src to dst inclusive of both
// endpoints, or nil when dst is unreachable. Ties are broken toward the
// lowest-numbered predecessor so results are deterministic.
func (g *Graph) ShortestPath(src, dst int) []int {
	g.checkVertex(src)
	g.checkVertex(dst)
	if src == dst {
		return []int{src}
	}
	prev := make([]int, g.n)
	dist := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == dst {
			break
		}
		// Sorted neighbour visit keeps the predecessor choice canonical.
		nbrs := append([]int(nil), g.adj[v]...)
		sort.Ints(nbrs)
		for _, w := range nbrs {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	if dist[dst] == -1 {
		return nil
	}
	path := []int{dst}
	for v := dst; v != src; v = prev[v] {
		path = append(path, prev[v])
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Connected reports whether the graph is connected (true for N <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFSFrom(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the longest shortest-path distance between any pair of
// vertices, or -1 when the graph is disconnected or empty. The paper uses
// topology graph diameter to justify preferring "square" MCM dimensions.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		for _, d := range g.BFSFrom(v) {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
