package collision_test

import (
	"math"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// completer returns the qubit whose placement completes violation v:
// types 1-4 at max(Control, Target), types 5-6 at max(Target, Target2),
// type 7 at the maximum of the triple.
func completer(v collision.Violation) int {
	switch {
	case v.Type <= 4:
		return max(v.Control, v.Target)
	case v.Type <= 6:
		return max(v.Target, v.Target2)
	}
	return max(v.Control, v.Target, v.Target2)
}

// violatesIntervals reports whether f_q lies outside one of wins or
// inside one of bands.
func violatesIntervals(f []float64, q int, wins []collision.Window, bands []collision.Band) bool {
	for _, w := range wins {
		if f[q] < f[w.Ref]+w.Lo || f[q] > f[w.Ref]+w.Hi {
			return true
		}
	}
	for _, b := range bands {
		center := b.CA*f[b.A] + b.C0
		if b.B >= 0 {
			center += b.CB * f[b.B]
		}
		if math.Abs(f[q]-center) <= b.HW {
			return true
		}
	}
	return false
}

// intervalsAgree draws n fabricated devices and checks that, qubit by
// qubit, the interval form of Table I is violated exactly when the
// predicate form reports a violation that qubit completes. It returns
// how many draws were collision-free.
func intervalsAgree(t testing.TB, d *topo.Device, m fab.Model, p collision.Params, seed int64, n int) (free int) {
	t.Helper()
	c := collision.NewChecker(d, p)
	rng := runner.NewTrialRNG()
	f := make([]float64, d.N)
	completes := make([]bool, d.N)
	var wins []collision.Window
	var bands []collision.Band
	for i := 0; i < n; i++ {
		m.SampleInto(rng.At(seed, i), d, f)
		clear(completes)
		vs := c.Violations(f)
		for _, v := range vs {
			completes[completer(v)] = true
		}
		if len(vs) == 0 {
			free++
		}
		for q := range f {
			wins, bands = c.Intervals(q, wins[:0], bands[:0])
			if got := violatesIntervals(f, q, wins, bands); got != completes[q] {
				t.Fatalf("%s sigma %g trial %d qubit %d: intervals violated %t, predicates %t (%v)",
					d.Name, m.Sigma, i, q, got, completes[q], vs)
			}
		}
	}
	return free
}

// reversed returns d with its couplings added in reverse order, so each
// qubit lists its neighbours from high to low and every control pair
// names its later-placed target first (T1 > T2). No generated device
// does; it exercises the type 7 case where T1 is placed last.
func reversed(d *topo.Device) *topo.Device {
	r := *d
	r.Name = d.Name + "-reversed"
	r.G = graph.New(d.N)
	es := d.G.Edges()
	for i := len(es) - 1; i >= 0; i-- {
		r.G.AddEdge(es[i].U, es[i].V)
	}
	return &r
}

// TestIntervalsMatchPredicates ties Table I's interval form to its
// predicate form on the paper's 100-qubit device, built forwards and
// reversed, and every lattice family at 2×2 tiles of 10 qubits. Each
// device gets a plan and sigma
// under which both collision-free and colliding draws occur: stack3d's
// seven-class ladder needs a 0.025 GHz step to be collision-free at
// all.
func TestIntervalsMatchPredicates(t *testing.T) {
	type dev struct {
		d           *topo.Device
		step, sigma float64
	}
	paper := topo.MonolithicDevice(topo.MonolithicSpec(100))
	devs := []dev{{paper, 0.06, 0.014}, {reversed(paper), 0.06, 0.014}}
	for _, c := range []struct {
		family      string
		layers      int
		step, sigma float64
	}{
		{topo.FamilySquare, 0, 0.06, 0.003},
		{topo.FamilyHex, 0, 0.06, 0.005},
		{topo.FamilyHeavyHex, 0, 0.06, 0.014},
		{topo.FamilyStack3D, 2, 0.025, 0.0025},
	} {
		spec := topo.LatticeSpec{Family: c.family, Rows: 2, Cols: 2, ChipQubits: 10, Layers: c.layers}
		devs = append(devs, dev{spec.MustBuild(), c.step, c.sigma})
	}
	const n = 2000
	for _, dv := range devs {
		m := fab.DefaultModel()
		m.Plan.Step, m.Sigma = dv.step, dv.sigma
		free := intervalsAgree(t, dv.d, m, collision.DefaultParams(), 1, n)
		if free == 0 || free == n {
			t.Errorf("%s: %d of %d draws collision-free; the check needs both outcomes", dv.d.Name, free, n)
		}
	}
}

// FuzzIntervals checks the same agreement on a 16-qubit paper device
// over fuzzed seeds, plan steps and sigmas.
func FuzzIntervals(f *testing.F) {
	f.Add(int64(1), 0.06, 0.014)
	f.Add(int64(7), 0.04, 0.05)
	f.Add(int64(42), 0.1, 0.002)
	d := topo.MonolithicDevice(topo.MonolithicSpec(16))
	f.Fuzz(func(t *testing.T, seed int64, step, sigma float64) {
		if !(step >= 0.01 && step <= 0.2) || !(sigma >= 1e-4 && sigma <= 0.2) {
			t.Skip("plan step or sigma outside the physical regime")
		}
		m := fab.DefaultModel()
		m.Plan.Step, m.Sigma = step, sigma
		intervalsAgree(t, d, m, collision.DefaultParams(), seed, 50)
	})
}
