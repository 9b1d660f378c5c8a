package collision_test

import (
	"fmt"
	"slices"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
)

// criteria lists every Table I criterion of d as a key: "c>t" for the
// coupling with control c and target t, "c:t1,t2" for a control pair.
func criteria(d *topo.Device) []string {
	var out []string
	for _, e := range d.G.Edges() {
		out = append(out, fmt.Sprintf("%d>%d", d.ControlOf(e.U, e.V), d.TargetOf(e.U, e.V)))
	}
	for _, cp := range d.ControlPairs() {
		out = append(out, pairKey(cp.Control, cp.T1, cp.T2))
	}
	return out
}

func pairKey(c, t1, t2 int) string { return fmt.Sprintf("%d:%d,%d", c, min(t1, t2), max(t1, t2)) }

// chipModel is one chip of a multi-chip device as a device of its own:
// global qubit q is qubit local[q] of chip ChipOf[q].
type chipModel struct {
	dev   []*topo.Device // per chip
	local []int
}

// tiled is the model of an MCM: every chip is the catalog chip, shifted
// by its base qubit, which is what KGD testing screened.
func tiled(d *topo.Device, spec topo.ChipSpec) chipModel {
	chip := topo.MonolithicDevice(spec)
	m := chipModel{local: make([]int, d.N)}
	for c := 0; c < d.Chips; c++ {
		m.dev = append(m.dev, chip)
	}
	for q := range d.N {
		m.local[q] = q - d.ChipOf[q]*chip.N
	}
	return m
}

// induced models each chip of a generated lattice as the device its
// own qubits and couplings form.
func induced(d *topo.Device) chipModel {
	m := chipModel{local: make([]int, d.N)}
	var members [][]int
	for q := range d.N {
		c := d.ChipOf[q]
		for len(members) <= c {
			members = append(members, nil)
		}
		m.local[q] = len(members[c])
		members[c] = append(members[c], q)
	}
	for _, qs := range members {
		n := len(qs)
		sub := &topo.Device{N: n, Class: make([]topo.Class, n), IsBridge: make([]bool, n),
			Coord: make([][2]int, n), ChipOf: make([]int, n), Chips: 1, G: graph.New(n), Link: map[graph.Edge]bool{}}
		for i, q := range qs {
			sub.Class[i] = d.Class[q]
		}
		for _, e := range d.G.Edges() {
			if d.ChipOf[e.U] == d.ChipOf[qs[0]] && d.ChipOf[e.V] == d.ChipOf[qs[0]] {
				sub.G.AddEdge(m.local[e.U], m.local[e.V])
			}
		}
		m.dev = append(m.dev, sub)
	}
	return m
}

// TestSeamCheckerPartitionsCriteria: on a 2x2 grid of every registered
// scenario's catalog chiplets, and on a 2x2 grid of every generated
// lattice family, each criterion of the device is either a seam
// criterion (its qubits span chips) or a criterion of its chip's own
// device, never both, and every chip criterion appears on every chip.
// The seam checker compiles exactly the seam criteria and reads exactly
// their qubits, so a known-good chip set needs only the seam check.
func TestSeamCheckerPartitionsCriteria(t *testing.T) {
	type system struct {
		name  string
		dev   *topo.Device
		chips chipModel
	}
	var systems []system
	seen := map[topo.ChipSpec]bool{}
	for _, scn := range scenario.All() {
		for _, cs := range scn.Catalog {
			if seen[cs.Spec] {
				continue
			}
			seen[cs.Spec] = true
			g := mcm.Grid{Rows: 2, Cols: 2, Spec: cs.Spec}
			d := mcm.MustBuild(g)
			systems = append(systems, system{g.String(), d, tiled(d, cs.Spec)})
		}
	}
	for _, fam := range topo.LatticeFamilies() {
		ls := topo.LatticeSpec{Family: fam, Rows: 2, Cols: 2, ChipQubits: 20}
		if fam == topo.FamilyStack3D {
			ls.Layers = 2
		}
		d := ls.MustBuild()
		chips := induced(d)
		if fam == topo.FamilyHeavyHex {
			spec, err := ls.HeavyHexChip()
			if err != nil {
				t.Fatal(err)
			}
			chips = tiled(d, spec)
		}
		systems = append(systems, system{d.Name, d, chips})
	}

	p := collision.DefaultParams()
	for _, s := range systems {
		d, m := s.dev, s.chips
		chipCriteria := make([]map[string]bool, len(m.dev))
		for c, cd := range m.dev {
			chipCriteria[c] = map[string]bool{}
			for _, k := range criteria(cd) {
				chipCriteria[c][k] = true
			}
		}
		var seamEdges, seamPairs, chipHits int
		seamQubits := map[int]bool{}
		for _, e := range d.G.Edges() {
			ctl, tgt := d.ControlOf(e.U, e.V), d.TargetOf(e.U, e.V)
			if c := d.ChipOf[ctl]; d.ChipOf[tgt] != c {
				seamEdges++
				seamQubits[ctl], seamQubits[tgt] = true, true
			} else if chipCriteria[c][fmt.Sprintf("%d>%d", m.local[ctl], m.local[tgt])] {
				chipHits++
			} else {
				t.Fatalf("%s: coupling %d>%d lies on chip %d but is no criterion of that chip", s.name, ctl, tgt, c)
			}
		}
		for _, cp := range d.ControlPairs() {
			if c := d.ChipOf[cp.Control]; d.ChipOf[cp.T1] != c || d.ChipOf[cp.T2] != c {
				seamPairs++
				seamQubits[cp.Control], seamQubits[cp.T1], seamQubits[cp.T2] = true, true, true
			} else if chipCriteria[c][pairKey(m.local[cp.Control], m.local[cp.T1], m.local[cp.T2])] {
				chipHits++
			} else {
				t.Fatalf("%s: control pair %v lies on chip %d but is no criterion of that chip", s.name, cp, c)
			}
		}
		// Every chip criterion was matched once: nothing the KGD test
		// checked is missing from the device, and no chip criterion was
		// also counted as a seam one.
		want := 0
		for _, cc := range chipCriteria {
			want += len(cc)
		}
		if chipHits != want {
			t.Errorf("%s: %d device criteria match a chip criterion, want all %d chip criteria", s.name, chipHits, want)
		}
		if seamEdges == 0 || seamPairs == 0 {
			t.Errorf("%s: %d seam couplings and %d seam pairs; a 2x2 grid has both", s.name, seamEdges, seamPairs)
		}

		seam, full := collision.NewSeamChecker(d, p), collision.NewChecker(d, p)
		if seam.Edges() != seamEdges || seam.Pairs() != seamPairs {
			t.Errorf("%s: seam checker compiles %d couplings and %d pairs, want %d and %d",
				s.name, seam.Edges(), seam.Pairs(), seamEdges, seamPairs)
		}
		if full.Edges()+full.Pairs() != seamEdges+seamPairs+chipHits {
			t.Errorf("%s: full checker compiles %d criteria, want %d seam + %d chip",
				s.name, full.Edges()+full.Pairs(), seamEdges+seamPairs, chipHits)
		}
		var wantQubits []int
		for q := range seamQubits {
			wantQubits = append(wantQubits, q)
		}
		slices.Sort(wantQubits)
		if got := seam.Qubits(); !slices.Equal(got, wantQubits) {
			t.Errorf("%s: seam checker reads qubits %v, want %v", s.name, got, wantQubits)
		}
		if got := full.Qubits(); len(got) != d.N {
			t.Errorf("%s: full checker reads %d qubits, want all %d", s.name, len(got), d.N)
		}
	}
}
