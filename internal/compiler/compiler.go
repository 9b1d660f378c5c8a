// Package compiler maps logical benchmark circuits onto physical device
// topologies (paper Section VII-B): a BFS-center initial layout followed
// by shortest-path SWAP routing, producing circuits whose every
// two-qubit gate acts on a physically coupled pair. Inserted SWAPs are
// lowered to three CX gates, so compiled gate counts are directly
// comparable to the paper's Table II.
package compiler

import (
	"fmt"
	"sort"

	"chipletqc/internal/circuit"
	"chipletqc/internal/graph"
	"chipletqc/internal/topo"
)

// Result is a compiled circuit with its qubit mapping bookkeeping.
type Result struct {
	// Compiled is the physical circuit over the device's qubits; every
	// two-qubit gate acts on a coupled pair.
	Compiled *circuit.Circuit
	// InitialLayout maps logical qubit -> physical qubit at circuit start.
	InitialLayout []int
	// FinalLayout maps logical qubit -> physical qubit after execution
	// (SWAP insertion permutes the mapping).
	FinalLayout []int
	// SwapsInserted counts routing SWAPs (each costing three CX).
	SwapsInserted int
	// Counts caches the compiled circuit's Table II metrics.
	Counts circuit.Counts
}

// Compile maps circuit c onto device dev with baseline options. The
// circuit is lowered to the native {1q, CX} basis first. It returns an
// error when the circuit needs more qubits than the device offers, or
// than the connected component holding the layout center reaches.
func Compile(c *circuit.Circuit, dev *topo.Device) (*Result, error) {
	return compile(c, dev, Options{})
}

// compile is the shared implementation behind Compile and
// CompileWithOptions.
func compile(c *circuit.Circuit, dev *topo.Device, opts Options) (*Result, error) {
	if c.NumQubits > dev.N {
		return nil, fmt.Errorf("compiler: circuit needs %d qubits, device %q has %d",
			c.NumQubits, dev.Name, dev.N)
	}
	native := circuit.Decompose(c)
	rt := newRouter(dev.G)
	if len(rt.order) < c.NumQubits {
		return nil, fmt.Errorf("compiler: circuit needs %d qubits, device %q reaches only %d from its center",
			c.NumQubits, dev.Name, len(rt.order))
	}
	layout := make([]int, c.NumQubits)
	for l := range layout {
		layout[l] = int(rt.order[l])
	}

	pos := append([]int(nil), layout...) // logical -> physical
	owner := make([]int, dev.N)          // physical -> logical (-1 free)
	for p := range owner {
		owner[p] = -1
	}
	for l, p := range pos {
		owner[p] = l
	}

	out := circuit.New(dev.N)
	// Every native gate emits one output gate; SWAPs append after.
	out.Gates = make([]circuit.Gate, 0, len(native.Gates))
	swaps := 0

	emitSwap := func(u, v int) {
		out.CX(u, v)
		out.CX(v, u)
		out.CX(u, v)
		lu, lv := owner[u], owner[v]
		owner[u], owner[v] = lv, lu
		if lu >= 0 {
			pos[lu] = v
		}
		if lv >= 0 {
			pos[lv] = u
		}
		swaps++
	}

	// route swaps logical a toward logical b until their physical qubits
	// couple: along the BFS routing table by default, or along a
	// minimum-cost path under the configured edge costs.
	route := func(a, b int) error {
		for {
			u, v := pos[a], pos[b]
			var hop int
			if opts.EdgeCost == nil {
				i := u*dev.N + v
				if rt.dist[i] == 1 {
					return nil
				}
				if rt.dist[i] < 0 {
					return fmt.Errorf("compiler: no path between physical %d and %d", u, v)
				}
				hop = int(rt.next[i])
			} else {
				if dev.G.HasEdge(u, v) {
					return nil
				}
				path, _ := dev.G.ShortestPathWeighted(u, v, opts.EdgeCost)
				if path == nil {
					return fmt.Errorf("compiler: no path between physical %d and %d", u, v)
				}
				hop = path[1]
			}
			emitSwap(u, hop)
		}
	}

	for _, g := range native.Gates {
		switch {
		case g.IsOneQubit():
			out.Append(g.Name, g.Param, pos[g.Qubits[0]])
		case g.IsTwoQubit():
			a, b := g.Qubits[0], g.Qubits[1]
			if err := route(a, b); err != nil {
				return nil, err
			}
			out.Append(g.Name, g.Param, pos[a], pos[b])
		default:
			return nil, fmt.Errorf("compiler: unexpected %d-qubit gate %q after lowering",
				len(g.Qubits), g.Name)
		}
	}

	return &Result{
		Compiled:      out,
		InitialLayout: layout,
		FinalLayout:   pos,
		SwapsInserted: swaps,
		Counts:        out.Counts(),
	}, nil
}

// router holds one compile's all-pairs BFS routing tables over an
// n-vertex graph, indexed u*n+v. Each source is searched once, visiting
// neighbours in ascending order, which is the visit order
// graph.ShortestPath uses. ShortestPath(u, v) stops when it dequeues v,
// by which time v and its BFS-tree ancestors have their predecessors
// fixed exactly as in the full search from u, so next always names the
// second vertex of ShortestPath(u, v).
type router struct {
	// dist[u*n+v] is the hop count from u to v, -1 when unreachable.
	dist []int32
	// next[u*n+v] is the first hop from u toward v (v itself when
	// adjacent, u when v == u, -1 when unreachable).
	next []int32
	// order is the BFS discovery order from the graph center: the
	// vertex of minimum eccentricity, lowest id on ties. The
	// eccentricity of a vertex counts only the vertices it reaches.
	order []int32
}

func newRouter(g *graph.Graph) *router {
	n := g.N()
	adj := make([][]int, n)
	for v := range adj {
		adj[v] = append([]int(nil), g.Neighbors(v)...)
		sort.Ints(adj[v])
	}
	r := &router{dist: make([]int32, n*n), next: make([]int32, n*n)}
	for i := range r.dist {
		r.dist[i] = -1
		r.next[i] = -1
	}
	// queue holds the current source's discovery order; it trades
	// buffers with order whenever that source becomes the new center.
	queue, order := make([]int32, n), make([]int32, n)
	bestEcc := int32(n) // above any eccentricity
	for src := 0; src < n; src++ {
		dist, next := r.dist[src*n:(src+1)*n], r.next[src*n:(src+1)*n]
		dist[src], next[src] = 0, int32(src)
		queue[0] = int32(src)
		tail := 1
		for head := 0; head < tail; head++ {
			v := queue[head]
			for _, w := range adj[v] {
				if dist[w] >= 0 {
					continue
				}
				dist[w] = dist[v] + 1
				if int(v) == src {
					next[w] = int32(w)
				} else {
					next[w] = next[v]
				}
				queue[tail] = int32(w)
				tail++
			}
		}
		if ecc := dist[queue[tail-1]]; ecc < bestEcc {
			bestEcc = ecc
			queue, order = order, queue
			r.order = order[:tail]
		}
	}
	return r
}
