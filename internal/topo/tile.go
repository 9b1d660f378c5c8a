package topo

import (
	"fmt"

	"chipletqc/internal/graph"
)

// TileGrid assembles rows x cols copies of the heavy-hex chip spec into
// one device: chiplet copies at each grid position plus inter-chip link
// edges. Horizontal links couple each chip's right-edge F2 qubits to
// the left edge of its right-hand neighbour; vertical links couple each
// chip's bottom bridge row (F2) to the top dense row of the chip below
// (shifted two columns for odd-dense-row chiplets).
//
// This is the composition core of internal/mcm's Build, hoisted here so
// generated lattice families (LatticeSpec's heavy-hex) can reuse it
// without importing mcm. Callers validate spec and dimensions first;
// the resulting Device satisfies Device.Validate.
func TileGrid(spec ChipSpec, rows, cols int) *Device {
	chip := BuildChip(spec)
	nPer := chip.N
	total := rows * cols * nPer

	d := &Device{
		Name:     fmt.Sprintf("tile-%dx%d-%dq", rows, cols, spec.Qubits()),
		N:        total,
		Class:    make([]Class, total),
		IsBridge: make([]bool, total),
		Coord:    make([][2]int, total),
		ChipOf:   make([]int, total),
		Chips:    rows * cols,
		G:        graph.New(total),
		Link:     map[graph.Edge]bool{},
	}

	// Global footprint of one chip in grid cells: width w columns,
	// height 2r rows (dense+sparse interleaved).
	w := spec.Width
	h := 2 * spec.DenseRows

	chipBase := func(row, col int) int {
		return (row*cols + col) * nPer
	}

	// Instantiate chip copies.
	chipEdges := chip.G.Edges()
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			base := chipBase(row, col)
			idx := row*cols + col
			for q := 0; q < nPer; q++ {
				gq := base + q
				d.Class[gq] = chip.Class[q]
				d.IsBridge[gq] = chip.IsBridge[q]
				d.Coord[gq] = [2]int{chip.Coord[q][0] + col*w, chip.Coord[q][1] + row*h}
				d.ChipOf[gq] = idx
			}
			for _, e := range chipEdges {
				d.G.AddEdge(base+e.U, base+e.V)
			}
		}
	}

	// Horizontal links: right edge of (row, col) to left edge of
	// (row, col+1).
	right := chip.RightEdge()
	left := chip.LeftEdge()
	for row := 0; row < rows; row++ {
		for col := 0; col+1 < cols; col++ {
			a, b := chipBase(row, col), chipBase(row, col+1)
			for i := range right {
				u, v := a+right[i], b+left[i]
				d.G.AddEdge(u, v)
				d.Link[graph.NewEdge(u, v)] = true
			}
		}
	}

	// Vertical links: bottom bridges of (row, col) to top acceptors of
	// (row+1, col).
	bridges := chip.BottomBridges()
	acceptors := chip.TopAcceptors()
	for row := 0; row+1 < rows; row++ {
		for col := 0; col < cols; col++ {
			a, b := chipBase(row, col), chipBase(row+1, col)
			for i := range bridges {
				u, v := a+bridges[i], b+acceptors[i]
				d.G.AddEdge(u, v)
				d.Link[graph.NewEdge(u, v)] = true
			}
		}
	}

	return d
}
