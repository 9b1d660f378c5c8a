// Package compiler maps logical benchmark circuits onto physical device
// topologies (paper Section VII-B): a BFS-center initial layout followed
// by shortest-path SWAP routing, producing circuits whose every
// two-qubit gate acts on a physically coupled pair. Inserted SWAPs are
// lowered to three CX gates, so compiled gate counts are directly
// comparable to the paper's Table II. Compile builds the routed
// circuit; Route walks the same routing and reports only the physical
// coupling under each two-qubit gate, which is all a fidelity product
// needs.
package compiler

import (
	"fmt"
	"slices"
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
	return New(dev, Options{}).Compile(c)
}

// Compiler compiles circuits onto one device. It builds the device's
// routing table once, so compiling a suite onto the same device pays
// for it once instead of per circuit. A Compiler is never mutated after
// New and is safe for concurrent use.
type Compiler struct {
	dev  *topo.Device
	opts Options
	rt   *router
}

// New returns a Compiler for dev under opts.
func New(dev *topo.Device, opts Options) *Compiler {
	return &Compiler{dev: dev, opts: opts, rt: newRouter(dev.G)}
}

// Compile maps circuit c onto the Compiler's device; see the package
// Compile for the errors it returns. It only reads the Compiler, so
// any number of goroutines may call it at once.
func (cp *Compiler) Compile(c *circuit.Circuit) (*Result, error) {
	native, layout, err := cp.prepare(c)
	if err != nil {
		return nil, err
	}
	out := circuit.New(cp.dev.N)
	// Every native gate emits one output gate and every SWAP three CX.
	// On the table path a dry pass counts the SWAPs, so the output is
	// allocated once at its exact size; under edge costs a dry pass
	// would double the weighted path searches, so the output grows.
	size := len(native.Gates)
	if cp.opts.EdgeCost == nil {
		swaps, err := cp.route(native, slices.Clone(layout), nil)
		if err != nil {
			return nil, err
		}
		size += 3 * swaps
	}
	out.Gates = make([]circuit.Gate, 0, size)
	pos := slices.Clone(layout)
	swaps, err := cp.route(native, pos, func(op circuit.Op, param float64, u, v int) {
		if v < 0 {
			out.Add(op, param, u)
		} else {
			out.Add(op, param, u, v)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Compiled:      out,
		InitialLayout: layout,
		FinalLayout:   pos,
		SwapsInserted: swaps,
		Counts:        out.Counts(),
	}, nil
}

// Route walks c's routing exactly as Compile does and calls visit with
// the physical endpoints (u, v) of every two-qubit gate Compile would
// emit, in Compile's gate order: the three CX of each SWAP, then the
// routed gate. It returns Compile's errors and builds no circuit, so a
// caller that needs only the compiled couplings (a gate count, a
// fidelity product) pays for one routing pass. Like Compile, it only
// reads the Compiler.
func (cp *Compiler) Route(c *circuit.Circuit, visit func(u, v int)) error {
	native, pos, err := cp.prepare(c)
	if err != nil {
		return err
	}
	_, err = cp.route(native, pos, func(_ circuit.Op, _ float64, u, v int) {
		if v >= 0 {
			visit(u, v)
		}
	})
	return err
}

// prepare lowers c to the native basis (c itself when already native,
// as the qbench generators emit) and returns it with the initial
// layout: logical qubit l on the l-th qubit of the BFS order from the
// device center.
func (cp *Compiler) prepare(c *circuit.Circuit) (native *circuit.Circuit, layout []int, err error) {
	dev := cp.dev
	if c.NumQubits > dev.N {
		return nil, nil, fmt.Errorf("compiler: circuit needs %d qubits, device %q has %d",
			c.NumQubits, dev.Name, dev.N)
	}
	if len(cp.rt.order) < c.NumQubits {
		return nil, nil, fmt.Errorf("compiler: circuit needs %d qubits, device %q reaches only %d from its center",
			c.NumQubits, dev.Name, len(cp.rt.order))
	}
	native = c
	if !circuit.IsNative(c) {
		native = circuit.Decompose(c)
	}
	layout = make([]int, c.NumQubits)
	for l := range layout {
		layout[l] = int(cp.rt.order[l])
	}
	return native, layout, nil
}

// route walks the native gates from the logical -> physical map pos,
// which it updates in place, swapping each two-qubit gate's first
// operand toward its second until their physical qubits couple: along
// the BFS routing table by default, or along a minimum-cost path under
// the configured edge costs. It passes every routed gate to emit in
// order (opcode, angle and physical operands, v = -1 for a one-qubit
// gate), each SWAP as three CX, unless emit is nil (a dry pass), and
// returns the SWAP count. This is the one routing loop: Compile and
// Route differ only in emit.
func (cp *Compiler) route(native *circuit.Circuit, pos []int, emit func(op circuit.Op, param float64, u, v int)) (swaps int, err error) {
	dev, rt := cp.dev, cp.rt
	owner := make([]int, dev.N) // physical -> logical (-1 free)
	for p := range owner {
		owner[p] = -1
	}
	for l, p := range pos {
		owner[p] = l
	}

	for _, g := range native.Gates {
		q := g.Qubits()
		switch {
		case g.IsOneQubit():
			if emit != nil {
				emit(g.Op(), g.Param, pos[q[0]], -1)
			}
		case g.IsTwoQubit():
			a, b := q[0], q[1]
			for {
				u, v := pos[a], pos[b]
				var hop int
				if cp.opts.EdgeCost == nil {
					i := u*dev.N + v
					if rt.dist[i] == 1 {
						break
					}
					if rt.dist[i] < 0 {
						return 0, fmt.Errorf("compiler: no path between physical %d and %d", u, v)
					}
					hop = int(rt.next[i])
				} else {
					if dev.G.HasEdge(u, v) {
						break
					}
					path, _ := dev.G.ShortestPathWeighted(u, v, cp.opts.EdgeCost)
					if path == nil {
						return 0, fmt.Errorf("compiler: no path between physical %d and %d", u, v)
					}
					hop = path[1]
				}
				if emit != nil {
					emit(circuit.OpCX, 0, u, hop)
					emit(circuit.OpCX, 0, hop, u)
					emit(circuit.OpCX, 0, u, hop)
				}
				lu, lh := owner[u], owner[hop]
				owner[u], owner[hop] = lh, lu
				if lu >= 0 {
					pos[lu] = hop
				}
				if lh >= 0 {
					pos[lh] = u
				}
				swaps++
			}
			if emit != nil {
				emit(g.Op(), g.Param, pos[a], pos[b])
			}
		default:
			return 0, fmt.Errorf("compiler: unexpected %d-qubit gate %q after lowering",
				len(q), g.Op())
		}
	}
	return swaps, nil
}

// router holds one device's all-pairs BFS routing tables over an
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
