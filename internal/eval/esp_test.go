package eval

import (
	"maps"
	"math"
	"slices"
	"testing"

	"chipletqc/internal/compiler"
	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/qbench"
	"chipletqc/internal/runner"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
)

// perGateLogFidelity is the per-gate formula the table path replaces,
// kept as the oracle: one lookup and one log per two-qubit gate,
// returning -Inf at the first gate with e >= 1.
func perGateLogFidelity(r *compiler.Result, a noise.Assignment) float64 {
	var sum float64
	for _, g := range r.Compiled.Gates {
		if !g.IsTwoQubit() {
			continue
		}
		e := a.Get(int(g.Qubits()[0]), int(g.Qubits()[1]))
		if e >= 1 {
			return math.Inf(-1)
		}
		sum += math.Log1p(-e)
	}
	return sum
}

func TestTableLogFidelityMatchesPerGateFormula(t *testing.T) {
	dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}})
	r := runner.NewTrialRNG().At(50, 0)
	base := noise.Assign(r, dev, fab.DefaultModel().Sample(r.Rand(), dev), scenario.Paper().DetuningModel(51), noise.DefaultLinkModel())
	devIdx := newEdgeIndex(dev.G.Edges())
	comp := compiler.New(dev, compiler.Options{})
	width := qbench.UtilizedQubits(dev.N)

	for _, bs := range qbench.Suite() {
		res, err := comp.Compile(bs.Generate(width, 9))
		if err != nil {
			t.Fatalf("%s: %v", bs.Short, err)
		}
		var used []graph.Edge
		for _, g := range res.Compiled.Gates {
			if g.IsTwoQubit() {
				used = append(used, graph.NewEdge(int(g.Qubits()[0]), int(g.Qubits()[1])))
			}
		}
		mid, last := used[len(used)/2], used[len(used)-1]
		cases := map[string]noise.Assignment{
			"sampled":    base,
			"e=1 mid":    withErr(base, mid, 1),
			"e>1 last":   withErr(base, last, 1.5),
			"nan then 1": withErr(withErr(base, used[0], math.NaN()), last, 1),
			"1 then nan": withErr(withErr(base, used[0], 1), last, math.NaN()),
			"missing":    without(base, used[0], mid, last),
			"empty":      {Err: map[graph.Edge]float64{}},
		}
		// The Fig. 10 path: one routing walk accumulates every case's
		// sum over its device table at once.
		names := slices.Sorted(maps.Keys(cases))
		var tables [][]float64
		for _, name := range names {
			tables = append(tables, devIdx.logTable(cases[name]))
		}
		walk := newLogSums(devIdx, tables)
		if err := comp.Route(bs.Generate(width, 9), walk.add); err != nil {
			t.Fatalf("%s: %v", bs.Short, err)
		}
		for k, name := range names {
			a := cases[name]
			want := math.Float64bits(perGateLogFidelity(res, a))
			if got := math.Float64bits(LogFidelity(res, a)); got != want {
				t.Errorf("%s %s: LogFidelity bits %x, per-gate formula %x", bs.Short, name, got, want)
			}
			if got := math.Float64bits(walk.sums[k]); got != want {
				t.Errorf("%s %s: route-walk bits %x, per-gate formula %x", bs.Short, name, got, want)
			}
		}
		if got := LogFidelity(res, cases["e=1 mid"]); !math.IsInf(got, -1) {
			t.Errorf("%s: e = 1 gives %v, want -Inf", bs.Short, got)
		}
	}
}

func TestSumLogsSkipsUnindexedCouplings(t *testing.T) {
	x := newEdgeIndex([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if id := x.id(2, 3); id != -1 {
		t.Fatalf("id of an absent coupling = %d, want -1", id)
	}
	if id := x.id(9, 1); id != -1 {
		t.Fatalf("id of an out-of-range vertex = %d, want -1", id)
	}
	s := newLogSums(x, [][]float64{{-0.5, -0.25}})
	s.add(1, 0)
	s.add(2, 3)
	s.add(2, 1)
	if got, want := s.sums[0], -0.75; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

// withErr returns a copy of a with coupling e's error set to v.
func withErr(a noise.Assignment, e graph.Edge, v float64) noise.Assignment {
	out := noise.Assignment{Err: maps.Clone(a.Err)}
	out.Err[e] = v
	return out
}

// without returns a copy of a lacking the given couplings.
func without(a noise.Assignment, drop ...graph.Edge) noise.Assignment {
	out := noise.Assignment{Err: maps.Clone(a.Err)}
	for _, e := range drop {
		delete(out.Err, e)
	}
	return out
}
