// Package topo models heavy-hexagon qubit topologies for monolithic
// transmon devices and quantum chiplets, together with the three-frequency
// allocation pattern of the paper (Section III-B, V-A).
//
// # Geometry
//
// A chip is parameterised by (r, w): r dense rows of w qubits each, with a
// sparse "bridge" row after every dense row. Dense row i sits at grid
// y = 2i; its bridge row at y = 2i+1. Bridge qubits occupy columns
// x = 0 (mod 4) under even dense rows and x = 2 (mod 4) under odd dense
// rows, which is the IBM heavy-hexagon pattern. For w = 0 (mod 4) the
// qubit count is N = 5rw/4, and every chiplet size evaluated in the paper
// (10..250 qubits) is hit exactly; see the Catalog.
//
// The final bridge row has no intra-chip downward couplings: its qubits
// are the chip's bottom inter-chip link qubits. The rightmost dense
// column (x = w-1) likewise carries the horizontal link qubits.
//
// # Frequency allocation
//
// Dense-row qubits follow the period-4 pattern [F0, F2, F1, F2] indexed by
// (x + 2*(row mod 2)) mod 4; all bridge qubits are F2. This realises every
// structural property the paper states:
//
//   - three ideal frequencies F0 < F1 < F2 suffice;
//   - every two-qubit coupling pairs an F2 qubit with an F0 or F1 qubit,
//     so the highest-frequency qubits act as the CR controls;
//   - no F2 qubit has degree greater than two;
//   - no F2 qubit sees two same-class neighbours (near-null safety);
//   - the rightmost and bottommost (link) qubits are always F2, so
//     inter-chiplet CR interactions are controlled from the chip edge;
//   - identically designed chips tile in both directions without ideal-
//     pattern collisions (odd-r chips shift vertical links two columns).
package topo

import (
	"fmt"
	"strings"

	"chipletqc/internal/graph"
)

// Class is an ideal frequency class: F0 < F1 < F2.
type Class uint8

// The three ideal frequency classes of the heavy-hex allocation.
const (
	F0 Class = iota
	F1
	F2
)

// String returns "F0", "F1", or "F2".
func (c Class) String() string {
	switch c {
	case F0:
		return "F0"
	case F1:
		return "F1"
	case F2:
		return "F2"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// FreqPlan maps frequency classes to ideal target frequencies in GHz.
// The paper fixes Base = 5.0 GHz and finds Step = 0.06 GHz optimal
// (Section IV-B); only the detuning between targets matters, not the
// absolute values.
//
// The paper assumes equal spacing between F0, F1, and F2 and names
// uneven spacing as future work; StepHigh supports that exploration: a
// non-zero value sets the F1 -> F2 spacing independently of Step.
type FreqPlan struct {
	Base float64 // F0 target in GHz
	Step float64 // F0 -> F1 spacing in GHz (and F1 -> F2 when StepHigh is 0)
	// StepHigh, when non-zero, is the F1 -> F2 spacing in GHz.
	StepHigh float64
}

// DefaultFreqPlan is the paper's chosen allocation: F0,1,2 = 5.0, 5.06,
// 5.12 GHz.
var DefaultFreqPlan = FreqPlan{Base: 5.0, Step: 0.06}

// AsymmetricPlan builds a plan with independent F0->F1 and F1->F2
// spacings, the design-space axis the paper leaves to future work.
func AsymmetricPlan(base, stepLow, stepHigh float64) FreqPlan {
	return FreqPlan{Base: base, Step: stepLow, StepHigh: stepHigh}
}

// Target returns the ideal frequency of class c under the plan. The
// paper's devices use only F0..F2; classes above F2 (the extended
// ladders of generated square/hex/3D lattices, which need more than
// three frequencies for collision-free CR control) continue upward at
// the F1 -> F2 spacing, so F0..F2 targets are untouched.
func (p FreqPlan) Target(c Class) float64 {
	switch c {
	case F0:
		return p.Base
	case F1:
		return p.Base + p.Step
	case F2:
		if p.StepHigh == 0 {
			return p.Base + 2*p.Step
		}
		return p.Base + p.Step + p.StepHigh
	default:
		stepHigh := p.StepHigh
		if stepHigh == 0 {
			stepHigh = p.Step
		}
		return p.Target(F2) + float64(c-2)*stepHigh
	}
}

// ChipSpec describes the heavy-hex chip family: r dense rows of width w.
type ChipSpec struct {
	DenseRows int // r >= 1
	Width     int // w >= 4 and w = 0 (mod 4)
}

// Validate reports whether the spec is a legal member of the family.
func (s ChipSpec) Validate() error {
	if s.DenseRows < 1 {
		return fmt.Errorf("topo: chip needs >= 1 dense row, got %d", s.DenseRows)
	}
	if s.Width < 4 || s.Width%4 != 0 {
		return fmt.Errorf("topo: chip width must be a positive multiple of 4, got %d", s.Width)
	}
	return nil
}

// Qubits returns the number of qubits, N = 5rw/4.
func (s ChipSpec) Qubits() int {
	return s.DenseRows*s.Width + s.DenseRows*(s.Width/4)
}

// String renders the spec compactly, e.g. "chip(r=2,w=8,N=20)".
func (s ChipSpec) String() string {
	return fmt.Sprintf("chip(r=%d,w=%d,N=%d)", s.DenseRows, s.Width, s.Qubits())
}

// ChipletSize names one paper chiplet: the qubit count plus its spec.
type ChipletSize struct {
	Qubits int
	Spec   ChipSpec
}

// Catalog is the nine chiplet sizes the paper evaluates (Section VII-B),
// each realised exactly by the (r, w) family.
var Catalog = []ChipletSize{
	{10, ChipSpec{DenseRows: 1, Width: 8}},
	{20, ChipSpec{DenseRows: 2, Width: 8}},
	{40, ChipSpec{DenseRows: 4, Width: 8}},
	{60, ChipSpec{DenseRows: 4, Width: 12}},
	{90, ChipSpec{DenseRows: 6, Width: 12}},
	{120, ChipSpec{DenseRows: 6, Width: 16}},
	{160, ChipSpec{DenseRows: 8, Width: 16}},
	{200, ChipSpec{DenseRows: 8, Width: 20}},
	{250, ChipSpec{DenseRows: 10, Width: 20}},
}

// SpecForQubits looks up the catalog chiplet with exactly q qubits.
func SpecForQubits(q int) (ChipSpec, error) {
	for _, c := range Catalog {
		if c.Qubits == q {
			return c.Spec, nil
		}
	}
	return ChipSpec{}, fmt.Errorf("topo: no catalog chiplet with %d qubits", q)
}

// MonolithicSpec returns the most "square" chip spec (minimising the
// physical aspect-ratio mismatch between 2r rows and w columns) whose
// qubit count is closest to n, breaking count ties toward squareness.
// The paper's monolithic baselines are built this way when no MCM shape
// dictates exact dimensions.
func MonolithicSpec(n int) ChipSpec {
	if n < 10 {
		n = 10
	}
	best := ChipSpec{DenseRows: 1, Width: 8}
	bestDiff := diffAbs(best.Qubits(), n)
	bestAspect := aspectPenalty(best)
	for w := 4; w <= 4*n; w += 4 {
		// r chosen so 5rw/4 ~ n  =>  r ~ 4n/(5w).
		for dr := -1; dr <= 1; dr++ {
			r := (4*n)/(5*w) + dr
			if r < 1 {
				continue
			}
			s := ChipSpec{r, w}
			d := diffAbs(s.Qubits(), n)
			a := aspectPenalty(s)
			if d < bestDiff || (d == bestDiff && a < bestAspect) {
				best, bestDiff, bestAspect = s, d, a
			}
		}
		if w > 2*n {
			break
		}
	}
	return best
}

func diffAbs(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// aspectPenalty measures deviation from a square footprint (2r vs w).
func aspectPenalty(s ChipSpec) int {
	return diffAbs(2*s.DenseRows, s.Width)
}

// Chip is a generated heavy-hex chip: qubit coordinates, frequency
// classes, and the intra-chip coupling graph.
type Chip struct {
	Spec     ChipSpec
	N        int
	Coord    [][2]int // (x, y) grid coordinate per qubit
	Class    []Class  // ideal frequency class per qubit
	IsBridge []bool   // true for sparse-row bridge qubits
	G        *graph.Graph
	// index holds id+1 of the qubit at cell (x, y), at y*Width+x over
	// the Width x 2*DenseRows grid; 0 marks an empty sparse-row cell.
	index []int32
}

// bridgeOffset returns the column residue (mod 4) of bridges in sparse
// row i: 0 under even dense rows, 2 under odd ones.
func bridgeOffset(i int) int {
	if i%2 == 0 {
		return 0
	}
	return 2
}

// denseClass returns the frequency class of dense-row qubit (x, row i):
// the period-4 pattern [F0, F2, F1, F2] with a 2-column phase shift on
// odd rows.
func denseClass(x, row int) Class {
	pattern := [4]Class{F0, F2, F1, F2}
	return pattern[(x+2*(row%2))%4]
}

// BuildChip generates the chip for spec. It panics on an invalid spec:
// specs are static configuration, and every catalog entry is valid.
func BuildChip(spec ChipSpec) *Chip {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	r, w := spec.DenseRows, spec.Width
	n := spec.Qubits()
	c := &Chip{
		Spec:     spec,
		N:        n,
		Coord:    make([][2]int, 0, n),
		Class:    make([]Class, 0, n),
		IsBridge: make([]bool, 0, n),
		index:    make([]int32, w*2*r),
	}
	add := func(x, y int, cl Class, bridge bool) {
		c.Coord = append(c.Coord, [2]int{x, y})
		c.Class = append(c.Class, cl)
		c.IsBridge = append(c.IsBridge, bridge)
		c.index[y*w+x] = int32(len(c.Coord))
	}
	at := func(x, y int) int { return int(c.index[y*w+x]) - 1 }
	for i := 0; i < r; i++ {
		for x := 0; x < w; x++ {
			add(x, 2*i, denseClass(x, i), false)
		}
		off := bridgeOffset(i)
		for x := off; x < w; x += 4 {
			add(x, 2*i+1, F2, true)
		}
	}
	c.G = graph.New(n)
	// Dense-row horizontal couplings.
	for i := 0; i < r; i++ {
		for x := 0; x+1 < w; x++ {
			c.G.AddEdge(at(x, 2*i), at(x+1, 2*i))
		}
	}
	// Bridge couplings: up always; down only when another dense row
	// follows (the final bridge row is the bottom link row).
	for i := 0; i < r; i++ {
		off := bridgeOffset(i)
		for x := off; x < w; x += 4 {
			b := at(x, 2*i+1)
			c.G.AddEdge(b, at(x, 2*i))
			if i+1 < r {
				c.G.AddEdge(b, at(x, 2*i+2))
			}
		}
	}
	return c
}

// QubitAt returns the qubit id at grid coordinate (x, y) and whether one
// exists there.
func (c *Chip) QubitAt(x, y int) (int, bool) {
	w := c.Spec.Width
	if x < 0 || x >= w || y < 0 || y >= 2*c.Spec.DenseRows {
		return 0, false
	}
	id := int(c.index[y*w+x]) - 1
	if id < 0 {
		return 0, false
	}
	return id, true
}

// RightEdge returns the horizontal link qubits (x = w-1 on each dense
// row), ordered top to bottom. In the paper's design these are always F2
// and act as controls for inter-chiplet CR gates.
func (c *Chip) RightEdge() []int {
	out := make([]int, 0, c.Spec.DenseRows)
	for i := 0; i < c.Spec.DenseRows; i++ {
		id, ok := c.QubitAt(c.Spec.Width-1, 2*i)
		if !ok {
			panic(fmt.Sprintf("topo: missing right-edge qubit on row %d", i))
		}
		out = append(out, id)
	}
	return out
}

// LeftEdge returns the x = 0 dense qubits, top to bottom; they accept the
// horizontal links from a left-hand neighbour chip.
func (c *Chip) LeftEdge() []int {
	out := make([]int, 0, c.Spec.DenseRows)
	for i := 0; i < c.Spec.DenseRows; i++ {
		id, ok := c.QubitAt(0, 2*i)
		if !ok {
			panic(fmt.Sprintf("topo: missing left-edge qubit on row %d", i))
		}
		out = append(out, id)
	}
	return out
}

// BottomBridges returns the bottom link qubits (final sparse row),
// ordered left to right: the F2 bridges that couple downward to the next
// chip in an MCM column.
func (c *Chip) BottomBridges() []int {
	i := c.Spec.DenseRows - 1
	off := bridgeOffset(i)
	out := make([]int, 0, c.Spec.Width/4)
	for x := off; x < c.Spec.Width; x += 4 {
		id, ok := c.QubitAt(x, 2*i+1)
		if !ok {
			panic(fmt.Sprintf("topo: missing bottom bridge at x=%d", x))
		}
		out = append(out, id)
	}
	return out
}

// VerticalLinkShift returns the column offset applied to vertical
// inter-chip links: 0 for even-r chips (identical chips tile directly)
// and 2 for odd-r chips, where the shift restores the F0/F1 alternation
// across the chip boundary (the interposer routes the two-column lateral
// offset).
func (c *Chip) VerticalLinkShift() int {
	if c.Spec.DenseRows%2 == 1 {
		return 2
	}
	return 0
}

// TopAcceptors returns, for each bottom bridge of an upper chip of the
// same spec, the dense row-0 qubit of this chip that receives the
// vertical link (bridge column plus VerticalLinkShift).
func (c *Chip) TopAcceptors() []int {
	i := c.Spec.DenseRows - 1
	off := bridgeOffset(i)
	shift := c.VerticalLinkShift()
	out := make([]int, 0, c.Spec.Width/4)
	for x := off; x < c.Spec.Width; x += 4 {
		ax := (x + shift) % c.Spec.Width
		id, ok := c.QubitAt(ax, 0)
		if !ok {
			panic(fmt.Sprintf("topo: missing top acceptor at x=%d", ax))
		}
		out = append(out, id)
	}
	return out
}

// Render draws the chip as ASCII art, one character cell per grid
// coordinate: '0', '1', '2' for dense qubits by class, 'B' for bridges.
// Useful in examples and documentation.
func (c *Chip) Render() string {
	var sb strings.Builder
	maxY := 2*c.Spec.DenseRows - 1
	for y := 0; y <= maxY; y++ {
		for x := 0; x < c.Spec.Width; x++ {
			id, ok := c.QubitAt(x, y)
			switch {
			case !ok:
				sb.WriteByte(' ')
			case c.IsBridge[id]:
				sb.WriteByte('B')
			default:
				sb.WriteByte('0' + byte(c.Class[id]))
			}
			if x+1 < c.Spec.Width {
				if ok2 := y%2 == 0; ok2 {
					sb.WriteByte('-')
				} else {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
