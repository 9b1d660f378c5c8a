package compiler

import (
	"math"

	"chipletqc/internal/circuit"
	"chipletqc/internal/graph"
	"chipletqc/internal/noise"
	"chipletqc/internal/topo"
)

// Options tunes compilation. The zero value reproduces the paper's
// baseline: uniform routing cost over the coupling graph.
type Options struct {
	// EdgeCost assigns a routing cost per physical coupling; nil means
	// every coupling costs the same. The paper's future-work section
	// calls for "intelligent compilation routines that consider links" —
	// LinkAwareCost and ErrorAwareCost implement that idea.
	EdgeCost graph.WeightFunc
}

// LinkAwareCost returns a routing cost that charges inter-chip link
// couplings `penalty` times the cost of an on-chip coupling, steering
// routed paths away from the error-prone chip seams. A penalty equal to
// e_link/e_chip (~4 at state of art) is a natural choice.
func LinkAwareCost(dev *topo.Device, penalty float64) graph.WeightFunc {
	if penalty < 1 {
		penalty = 1
	}
	return func(u, v int) float64 {
		if dev.IsLink(u, v) {
			return penalty
		}
		return 1
	}
}

// ErrorAwareCost returns a routing cost derived from a realised error
// assignment: each coupling costs -log(1 - e), so a minimum-cost route
// is a maximum-fidelity route. Unknown couplings (absent from the
// assignment) cost as much as a 50% error so routing avoids them.
func ErrorAwareCost(a noise.Assignment) graph.WeightFunc {
	return func(u, v int) float64 {
		e, ok := a.Err[graph.NewEdge(u, v)]
		if !ok || e >= 1 {
			return math.Ln2 * 1 // -log(1-0.5)
		}
		return -math.Log1p(-e)
	}
}

// CompileWithOptions is Compile with explicit options.
func CompileWithOptions(c *circuit.Circuit, dev *topo.Device, opts Options) (*Result, error) {
	return New(dev, opts).Compile(c)
}
