package topo

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCatalogQubitCounts(t *testing.T) {
	// Every paper chiplet size must be realised exactly by its spec.
	want := []int{10, 20, 40, 60, 90, 120, 160, 200, 250}
	if len(Catalog) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(Catalog), len(want))
	}
	for i, c := range Catalog {
		if c.Qubits != want[i] {
			t.Errorf("catalog[%d].Qubits = %d, want %d", i, c.Qubits, want[i])
		}
		if got := c.Spec.Qubits(); got != c.Qubits {
			t.Errorf("%v spec yields %d qubits, want %d", c.Spec, got, c.Qubits)
		}
	}
}

func TestPaperChipletGrowthDescription(t *testing.T) {
	// The paper: the 60q chiplet is the 20q chiplet plus two dense rows
	// with four extra qubits each and two sparse rows with one extra
	// qubit each.
	s20, err := SpecForQubits(20)
	if err != nil {
		t.Fatal(err)
	}
	s60, err := SpecForQubits(60)
	if err != nil {
		t.Fatal(err)
	}
	if s60.DenseRows != s20.DenseRows+2 {
		t.Errorf("60q dense rows = %d, want %d", s60.DenseRows, s20.DenseRows+2)
	}
	if s60.Width != s20.Width+4 {
		t.Errorf("60q row width = %d, want %d", s60.Width, s20.Width+4)
	}
	// Sparse rows hold w/4 bridges: 20q has 2 per row, 60q has 3.
	if s20.Width/4 != 2 || s60.Width/4 != 3 {
		t.Errorf("bridge counts = %d,%d, want 2,3", s20.Width/4, s60.Width/4)
	}
}

func TestSpecForQubitsUnknown(t *testing.T) {
	if _, err := SpecForQubits(33); err == nil {
		t.Error("expected error for non-catalog size")
	}
}

func TestChipSpecValidate(t *testing.T) {
	bad := []ChipSpec{{0, 8}, {2, 0}, {2, 6}, {2, -4}, {-1, 8}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v should be invalid", s)
		}
	}
	if err := (ChipSpec{DenseRows: 1, Width: 4}).Validate(); err != nil {
		t.Errorf("minimal spec invalid: %v", err)
	}
}

func TestBuildChipInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BuildChip should panic on invalid spec")
		}
	}()
	BuildChip(ChipSpec{DenseRows: 2, Width: 7})
}

func TestFreqPlanTargets(t *testing.T) {
	p := DefaultFreqPlan
	if p.Target(F0) != 5.0 || p.Target(F1) != 5.06 || p.Target(F2) != 5.12 {
		t.Errorf("default plan targets = %v %v %v", p.Target(F0), p.Target(F1), p.Target(F2))
	}
}

func TestClassString(t *testing.T) {
	if F0.String() != "F0" || F1.String() != "F1" || F2.String() != "F2" {
		t.Error("Class.String wrong")
	}
	if s := Class(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown class string = %q", s)
	}
}

// checkChipInvariants asserts the heavy-hex structural properties on a
// generated chip.
func checkChipInvariants(t *testing.T, c *Chip) {
	t.Helper()
	if c.G.N() != c.N {
		t.Fatalf("graph size %d != N %d", c.G.N(), c.N)
	}
	if !c.G.Connected() {
		t.Fatalf("%v: chip graph disconnected", c.Spec)
	}
	if d := c.G.MaxDegree(); d > 3 {
		t.Errorf("%v: max degree %d > 3", c.Spec, d)
	}
	for q := 0; q < c.N; q++ {
		if c.Class[q] == F2 && c.G.Degree(q) > 2 {
			t.Errorf("%v: F2 qubit %d degree %d > 2", c.Spec, q, c.G.Degree(q))
		}
		if c.IsBridge[q] && c.Class[q] != F2 {
			t.Errorf("%v: bridge %d has class %v, want F2", c.Spec, q, c.Class[q])
		}
	}
	// Every edge pairs F2 with exactly one of F0/F1.
	for _, e := range c.G.Edges() {
		a, b := c.Class[e.U], c.Class[e.V]
		if (a == F2) == (b == F2) {
			t.Errorf("%v: edge %v has classes %v-%v", c.Spec, e, a, b)
		}
	}
}

func TestBuildChipAllCatalogSizes(t *testing.T) {
	for _, cs := range Catalog {
		c := BuildChip(cs.Spec)
		if c.N != cs.Qubits {
			t.Errorf("%v built %d qubits, want %d", cs.Spec, c.N, cs.Qubits)
		}
		checkChipInvariants(t, c)
	}
}

func TestChipInvariantsProperty(t *testing.T) {
	// Property-based: arbitrary (r, w) in range keep the invariants.
	f := func(r, w uint8) bool {
		spec := ChipSpec{DenseRows: 1 + int(r)%8, Width: 4 * (1 + int(w)%6)}
		c := BuildChip(spec)
		if c.N != spec.Qubits() {
			return false
		}
		if !c.G.Connected() || c.G.MaxDegree() > 3 {
			return false
		}
		for q := 0; q < c.N; q++ {
			if c.Class[q] == F2 && c.G.Degree(q) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEdgeQubitsAreF2(t *testing.T) {
	// Paper Section V-A: "the right-most and bottom-most qubits in our
	// chiplet design always have a F2 assignment".
	for _, cs := range Catalog {
		c := BuildChip(cs.Spec)
		for _, q := range c.RightEdge() {
			if c.Class[q] != F2 {
				t.Errorf("%v: right edge qubit %d class %v, want F2", cs.Spec, q, c.Class[q])
			}
			if c.G.Degree(q) > 2 {
				t.Errorf("%v: right edge qubit %d intra degree %d", cs.Spec, q, c.G.Degree(q))
			}
		}
		for _, q := range c.BottomBridges() {
			if c.Class[q] != F2 {
				t.Errorf("%v: bottom bridge %d class %v, want F2", cs.Spec, q, c.Class[q])
			}
			if c.G.Degree(q) != 1 {
				t.Errorf("%v: bottom bridge %d intra degree %d, want 1", cs.Spec, q, c.G.Degree(q))
			}
		}
	}
}

func TestLinkAcceptorClassesAlternate(t *testing.T) {
	// Across a horizontal chip boundary the F2 link control must see
	// different classes on its two sides; likewise for vertical links.
	for _, cs := range Catalog {
		c := BuildChip(cs.Spec)
		right, left := c.RightEdge(), c.LeftEdge()
		if len(right) != len(left) {
			t.Fatalf("%v: edge column mismatch", cs.Spec)
		}
		for i := range right {
			// Left neighbour of the right-edge qubit inside this chip.
			x, y := c.Coord[right[i]][0], c.Coord[right[i]][1]
			inner, ok := c.QubitAt(x-1, y)
			if !ok {
				t.Fatalf("%v: no inner neighbour", cs.Spec)
			}
			// The paired qubit on the next chip is that chip's left edge.
			if c.Class[inner] == c.Class[left[i]] {
				t.Errorf("%v: horizontal link row %d sees %v on both sides",
					cs.Spec, i, c.Class[inner])
			}
			if c.Class[inner] == F2 || c.Class[left[i]] == F2 {
				t.Errorf("%v: link neighbour is F2", cs.Spec)
			}
		}
		bridges, acceptors := c.BottomBridges(), c.TopAcceptors()
		if len(bridges) != len(acceptors) {
			t.Fatalf("%v: vertical link mismatch", cs.Spec)
		}
		for i, b := range bridges {
			x, y := c.Coord[b][0], c.Coord[b][1]
			up, ok := c.QubitAt(x, y-1)
			if !ok {
				t.Fatalf("%v: bridge without upper dense neighbour", cs.Spec)
			}
			if c.Class[up] == c.Class[acceptors[i]] {
				t.Errorf("%v: vertical link %d sees %v above and below",
					cs.Spec, i, c.Class[up])
			}
		}
	}
}

func TestVerticalLinkShift(t *testing.T) {
	c10 := BuildChip(ChipSpec{DenseRows: 1, Width: 8})
	if c10.VerticalLinkShift() != 2 {
		t.Errorf("odd-r chip shift = %d, want 2", c10.VerticalLinkShift())
	}
	c20 := BuildChip(ChipSpec{DenseRows: 2, Width: 8})
	if c20.VerticalLinkShift() != 0 {
		t.Errorf("even-r chip shift = %d, want 0", c20.VerticalLinkShift())
	}
}

func TestMonolithicSpec(t *testing.T) {
	cases := []struct{ n, wantQ int }{
		{10, 10},
		{20, 20},
		{100, 100},
		{180, 180},
		{500, 500},
	}
	for _, c := range cases {
		s := MonolithicSpec(c.n)
		if got := s.Qubits(); diffAbs(got, c.wantQ) > 10 {
			t.Errorf("MonolithicSpec(%d) = %v with %d qubits, want ~%d",
				c.n, s, got, c.wantQ)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("MonolithicSpec(%d) invalid: %v", c.n, err)
		}
	}
	// Tiny n clamps to the smallest chip.
	if s := MonolithicSpec(1); s.Qubits() != 10 {
		t.Errorf("MonolithicSpec(1) = %v, want 10 qubits", s)
	}
}

func TestMonolithicSpecExactFamilySizes(t *testing.T) {
	// MCM-equivalent sizes are in the 5rw/4 family and must be exact.
	for _, n := range []int{40, 80, 90, 160, 180, 240, 360, 480} {
		s := MonolithicSpec(n)
		if s.Qubits() != n {
			t.Errorf("MonolithicSpec(%d) = %v (%d qubits), want exact",
				n, s, s.Qubits())
		}
	}
}

// TestQubitAt checks the dense chip index on every catalog spec: every
// qubit's coordinate maps back to it, every other cell of the chip's
// grid is empty, and the ring of cells just off the grid (where a flat
// index would alias a neighbouring row) is absent.
func TestQubitAt(t *testing.T) {
	for _, cs := range Catalog {
		c := BuildChip(cs.Spec)
		for q, xy := range c.Coord {
			if id, ok := c.QubitAt(xy[0], xy[1]); !ok || id != q {
				t.Errorf("%v: QubitAt(%v) = (%d, %v), want (%d, true)", cs.Spec, xy, id, ok, q)
			}
		}
		w, h := cs.Spec.Width, 2*cs.Spec.DenseRows
		occupied := 0
		for y := -1; y <= h; y++ {
			for x := -1; x <= w; x++ {
				id, ok := c.QubitAt(x, y)
				if !ok {
					if id != 0 {
						t.Errorf("%v: absent QubitAt(%d, %d) returned id %d", cs.Spec, x, y, id)
					}
					continue
				}
				occupied++
				if x < 0 || x >= w || y < 0 || y >= h {
					t.Errorf("%v: QubitAt(%d, %d) off the grid = %d", cs.Spec, x, y, id)
				}
				if y%2 == 1 && (x-bridgeOffset(y/2))%4 != 0 {
					t.Errorf("%v: empty sparse-row cell (%d, %d) holds qubit %d", cs.Spec, x, y, id)
				}
			}
		}
		if occupied != c.N {
			t.Errorf("%v: %d occupied cells, want %d", cs.Spec, occupied, c.N)
		}
	}
}

func TestRender(t *testing.T) {
	c := BuildChip(ChipSpec{DenseRows: 1, Width: 8})
	art := c.Render()
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("render lines = %d, want 2:\n%s", len(lines), art)
	}
	// Dense row: pattern 0-2-1-2-0-2-1-2.
	if lines[0] != "0-2-1-2-0-2-1-2" {
		t.Errorf("dense row render = %q", lines[0])
	}
	if !strings.Contains(lines[1], "B") {
		t.Errorf("bridge row render = %q", lines[1])
	}
}

func TestMonolithicDevice(t *testing.T) {
	d := MonolithicDevice(ChipSpec{DenseRows: 2, Width: 8})
	if d.N != 20 || d.Chips != 1 {
		t.Fatalf("device N=%d chips=%d", d.N, d.Chips)
	}
	if len(d.Link) != 0 {
		t.Error("monolithic device should have no link edges")
	}
	if err := d.Validate(); err != nil {
		t.Errorf("monolithic device invalid: %v", err)
	}
	for _, chip := range d.ChipOf {
		if chip != 0 {
			t.Error("monolithic device qubits must be on chip 0")
		}
	}
}

func TestDeviceControlAssignment(t *testing.T) {
	d := MonolithicDevice(ChipSpec{DenseRows: 2, Width: 8})
	for _, e := range d.G.Edges() {
		ctrl := d.ControlOf(e.U, e.V)
		tgt := d.TargetOf(e.U, e.V)
		if d.Class[ctrl] != F2 {
			t.Errorf("control %d of edge %v has class %v, want F2", ctrl, e, d.Class[ctrl])
		}
		if d.Class[tgt] == F2 {
			t.Errorf("target %d of edge %v is F2", tgt, e)
		}
		if ctrl == tgt {
			t.Error("control == target")
		}
	}
}

func TestDeviceControlPairs(t *testing.T) {
	d := MonolithicDevice(ChipSpec{DenseRows: 2, Width: 8})
	pairs := d.ControlPairs()
	if len(pairs) == 0 {
		t.Fatal("expected control pairs on a 20q chip")
	}
	for _, p := range pairs {
		if d.Class[p.Control] != F2 {
			t.Errorf("pair control %d not F2", p.Control)
		}
		if d.Class[p.T1] == d.Class[p.T2] {
			t.Errorf("control %d targets share class %v", p.Control, d.Class[p.T1])
		}
		if !d.G.HasEdge(p.Control, p.T1) || !d.G.HasEdge(p.Control, p.T2) {
			t.Error("control pair targets must be neighbours")
		}
	}
}

func TestDeviceLinkedQubitsEmpty(t *testing.T) {
	d := MonolithicDevice(ChipSpec{DenseRows: 1, Width: 8})
	if got := d.LinkedQubits(); len(got) != 0 {
		t.Errorf("monolithic linked qubits = %v, want none", got)
	}
	if d.IsLink(0, 1) {
		t.Error("monolithic device has no links")
	}
}

func TestControlOfTieBreak(t *testing.T) {
	// Construct a degenerate device with equal classes to pin down the
	// deterministic tie-break.
	d := MonolithicDevice(ChipSpec{DenseRows: 1, Width: 8})
	d.Class[0] = F1
	d.Class[1] = F1
	if got := d.ControlOf(0, 1); got != 0 {
		t.Errorf("tie-break control = %d, want 0", got)
	}
	if got := d.ControlOf(1, 0); got != 0 {
		t.Errorf("tie-break control (swapped args) = %d, want 0", got)
	}
}
