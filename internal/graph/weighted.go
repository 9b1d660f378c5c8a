package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// WeightFunc assigns a traversal cost to an edge. Costs must be
// non-negative; Dijkstra panics on a negative weight because the routing
// layers derive weights from -log(1 - error), which is always >= 0.
type WeightFunc func(u, v int) float64

// ShortestPathWeighted returns a minimum-cost path from src to dst under
// the weight function, inclusive of both endpoints, plus its total cost.
// It returns (nil, +Inf) when dst is unreachable. Ties break toward the
// lexicographically smallest predecessor so results are deterministic.
func (g *Graph) ShortestPathWeighted(src, dst int, w WeightFunc) ([]int, float64) {
	g.checkVertex(src)
	g.checkVertex(dst)
	if src == dst {
		return []int{src}, 0
	}
	dist := make([]float64, g.n)
	prev := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &vertexHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(vertexItem)
		v := item.v
		if done[v] {
			continue
		}
		done[v] = true
		if v == dst {
			break
		}
		for _, nb := range g.adj[v] {
			if done[nb] {
				continue
			}
			c := w(v, nb)
			if c < 0 {
				panic(fmt.Sprintf("graph: negative edge weight %g on %d-%d", c, v, nb))
			}
			nd := dist[v] + c
			// Strict improvement, or equal cost with a smaller
			// predecessor, keeps the tree canonical.
			if nd < dist[nb] || (nd == dist[nb] && prev[nb] > v) {
				dist[nb] = nd
				prev[nb] = v
				heap.Push(pq, vertexItem{v: nb, d: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1)
	}
	path := []int{dst}
	for v := dst; v != src; v = prev[v] {
		path = append(path, prev[v])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[dst]
}

// vertexItem is a priority-queue entry.
type vertexItem struct {
	v int
	d float64
}

// vertexHeap is a min-heap over (distance, vertex).
type vertexHeap []vertexItem

func (h vertexHeap) Len() int { return len(h) }
func (h vertexHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].v < h[j].v
}
func (h vertexHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *vertexHeap) Push(x interface{}) { *h = append(*h, x.(vertexItem)) }
func (h *vertexHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
