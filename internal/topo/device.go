package topo

import (
	"fmt"

	"chipletqc/internal/graph"
)

// Device is an assembled quantum computer: a coupling graph over qubits
// with ideal frequency classes, chip membership, and a record of which
// couplings cross chip boundaries (inter-chip links). Monolithic devices
// have a single chip and no link edges; MCMs are built by internal/mcm.
type Device struct {
	// Name identifies the architecture, e.g. "mono-180" or "mcm-3x3-20q".
	Name string
	// N is the number of physical qubits.
	N int
	// Class holds the ideal frequency class per qubit.
	Class []Class
	// IsBridge marks sparse-row bridge qubits.
	IsBridge []bool
	// Coord holds global (x, y) grid coordinates per qubit.
	Coord [][2]int
	// ChipOf maps each qubit to its chip index (all zero for monolithic).
	ChipOf []int
	// Chips is the number of chips composing the device.
	Chips int
	// G is the full coupling graph including inter-chip links.
	G *graph.Graph
	// Link marks coupling edges that cross chip boundaries.
	Link map[graph.Edge]bool
}

// MonolithicDevice builds a single-chip device from spec.
func MonolithicDevice(spec ChipSpec) *Device { return BuildChip(spec).Device() }

// Device returns the single-chip device of c. The device adopts c's
// slices and graph, so it keeps the chip's adjacency order; neither is
// mutated after construction, so sharing them is safe.
func (c *Chip) Device() *Device {
	return &Device{
		Name:     fmt.Sprintf("mono-%d", c.N),
		N:        c.N,
		Class:    c.Class,
		IsBridge: c.IsBridge,
		Coord:    c.Coord,
		ChipOf:   make([]int, c.N),
		Chips:    1,
		G:        c.G,
		Link:     map[graph.Edge]bool{},
	}
}

// IsLink reports whether the coupling (u, v) is an inter-chip link.
func (d *Device) IsLink(u, v int) bool {
	if u == v {
		return false
	}
	return d.Link[graph.NewEdge(u, v)]
}

// ControlOf returns the CR control qubit of the coupling (u, v): the
// endpoint with the higher ideal frequency class, which in the paper's
// allocation is always the F2 qubit. Ties (which never occur in valid
// heavy-hex patterns) break toward the lower qubit id so the choice is
// deterministic.
func (d *Device) ControlOf(u, v int) int {
	cu, cv := d.Class[u], d.Class[v]
	switch {
	case cu > cv:
		return u
	case cv > cu:
		return v
	case u < v:
		return u
	default:
		return v
	}
}

// TargetOf returns the CR target qubit of the coupling (u, v): the
// endpoint that is not the control.
func (d *Device) TargetOf(u, v int) int {
	if d.ControlOf(u, v) == u {
		return v
	}
	return u
}

// ControlPairs enumerates, for every qubit that controls at least two of
// its neighbours, each unordered pair of controlled targets. These are
// the (Qi; Qj, Qk) triples that the Table I Type 5-7 criteria inspect.
func (d *Device) ControlPairs() []ControlPair {
	// Count, then fill: this runs in per-simulation constructors (the
	// collision checker, the sampling proposals), where per-qubit append
	// chains dominated the engine's allocation profile.
	n := 0
	for q := 0; q < d.N; q++ {
		c := 0
		for _, nb := range d.G.Neighbors(q) {
			if d.ControlOf(q, nb) == q {
				c++
			}
		}
		n += c * (c - 1) / 2
	}
	out := make([]ControlPair, 0, n)
	var targets []int
	for q := 0; q < d.N; q++ {
		targets = targets[:0]
		for _, nb := range d.G.Neighbors(q) {
			if d.ControlOf(q, nb) == q {
				targets = append(targets, nb)
			}
		}
		for a := 0; a < len(targets); a++ {
			for b := a + 1; b < len(targets); b++ {
				out = append(out, ControlPair{Control: q, T1: targets[a], T2: targets[b]})
			}
		}
	}
	return out
}

// ControlPair is a control qubit with two of its CR targets.
type ControlPair struct {
	Control, T1, T2 int
}

// LinkedQubits returns the sorted set of qubits that participate in at
// least one inter-chip link. Each such qubit requires 25 C4 bump bonds in
// the assembly yield model (Section VII-B).
func (d *Device) LinkedQubits() []int {
	seen := make([]bool, d.N)
	for e := range d.Link {
		seen[e.U], seen[e.V] = true, true
	}
	out := make([]int, 0, 2*len(d.Link))
	for q, ok := range seen {
		if ok {
			out = append(out, q)
		}
	}
	return out
}

// Validate checks the structural invariants the paper's architecture
// promises: max degree 3, F2 degree <= 2, every coupling touching exactly
// one F2 qubit, no control seeing two same-class targets, and a connected
// coupling graph. It returns the first violation found.
func (d *Device) Validate() error {
	if d.N != d.G.N() {
		return fmt.Errorf("topo: device N=%d but graph has %d vertices", d.N, d.G.N())
	}
	if !d.G.Connected() {
		return fmt.Errorf("topo: device %q coupling graph is disconnected", d.Name)
	}
	for q := 0; q < d.N; q++ {
		deg := d.G.Degree(q)
		if deg > 3 {
			return fmt.Errorf("topo: qubit %d has degree %d > 3", q, deg)
		}
		if d.Class[q] == F2 && deg > 2 {
			return fmt.Errorf("topo: F2 qubit %d has degree %d > 2", q, deg)
		}
	}
	for _, e := range d.G.Edges() {
		f2s := 0
		if d.Class[e.U] == F2 {
			f2s++
		}
		if d.Class[e.V] == F2 {
			f2s++
		}
		if f2s != 1 {
			return fmt.Errorf("topo: coupling %d-%d has %d F2 endpoints, want 1", e.U, e.V, f2s)
		}
	}
	for _, cp := range d.ControlPairs() {
		if d.Class[cp.T1] == d.Class[cp.T2] {
			return fmt.Errorf("topo: control %d has two %v targets (%d, %d)",
				cp.Control, d.Class[cp.T1], cp.T1, cp.T2)
		}
	}
	return nil
}
