package assembly

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"chipletqc/internal/mcm"
	"chipletqc/internal/topo"
)

func newAssembler(tb testing.TB, b *Batch, grid mcm.Grid, cfg AssembleConfig) *Assembler {
	tb.Helper()
	a, err := NewAssembler(b, grid, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func take(tb testing.TB, a *Assembler, k int) []*AssembledMCM {
	tb.Helper()
	mods, err := a.Take(context.Background(), k)
	if err != nil {
		tb.Fatal(err)
	}
	return mods
}

// sameModules reports the first difference between two module lists in
// member IDs and placement, realised frequencies or link errors.
func sameModules(got, want []*AssembledMCM) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d modules, want %d", len(got), len(want))
	}
	ids := func(m *AssembledMCM) []int {
		var out []int
		for _, c := range m.Members {
			out = append(out, c.ID)
		}
		return out
	}
	for i := range want {
		g, w := got[i], want[i]
		switch {
		case !slices.Equal(ids(g), ids(w)):
			return fmt.Sprintf("module %d: members %v, want %v", i, ids(g), ids(w))
		case !slices.Equal(g.Freq, w.Freq):
			return fmt.Sprintf("module %d: frequencies differ", i)
		case !maps.Equal(g.LinkErr, w.LinkErr):
			return fmt.Sprintf("module %d: link errors differ", i)
		case g.EAvg() != w.EAvg():
			return fmt.Sprintf("module %d: E_avg %v, want %v", i, g.EAvg(), w.EAvg())
		}
	}
	return ""
}

// TestPullMatchesAssemblePrefix: pulling k modules gives exactly the
// first k that Assemble returns, whether the k arrive in one Take or
// one at a time, and a later drain continues where the pull stopped.
// Pulling nothing (k = 0) consumes nothing: a drain afterwards is
// Assemble's whole output.
func TestPullMatchesAssemblePrefix(t *testing.T) {
	odd := topo.ChipSpec{DenseRows: 1, Width: 8}
	even := topo.ChipSpec{DenseRows: 2, Width: 8}
	grids := []mcm.Grid{
		{Rows: 1, Cols: 2, Spec: odd},
		{Rows: 3, Cols: 3, Spec: odd},
		{Rows: 2, Cols: 2, Spec: even},
	}
	for _, seed := range []int64{3, 12} {
		batches := map[topo.ChipSpec]*Batch{
			odd:  fabricate(t, odd, 300, testBatchConfig(seed)),
			even: fabricate(t, even, 300, testBatchConfig(seed)),
		}
		for _, g := range grids {
			b, cfg := batches[g.Spec], testAssembleConfig(seed)
			all, _ := assemble(t, b, g, cfg)
			if len(all) < 3 {
				t.Fatalf("%v seed %d: %d modules, need at least 3", g, seed, len(all))
			}
			for _, k := range []int{0, 1, 2, len(all)} {
				a := newAssembler(t, b, g, cfg)
				var got []*AssembledMCM
				if k > 0 {
					got = take(t, a, k)
				}
				if d := sameModules(got, all[:k]); d != "" {
					t.Fatalf("%v seed %d: Take(%d): %s", g, seed, k, d)
				}
				if d := sameModules(take(t, a, 0), all[k:]); d != "" {
					t.Fatalf("%v seed %d: drain after Take(%d): %s", g, seed, k, d)
				}

				one := newAssembler(t, b, g, cfg)
				got = nil
				for range k {
					got = append(got, take(t, one, 1)...)
				}
				if d := sameModules(got, all[:k]); d != "" {
					t.Fatalf("%v seed %d: %d single pulls: %s", g, seed, k, d)
				}
			}
			a := newAssembler(t, b, g, cfg)
			take(t, a, 0)
			if rest := take(t, a, 1); len(rest) != 0 {
				t.Errorf("%v seed %d: a drained assembler yielded %d more modules", g, seed, len(rest))
			}
		}
	}
}

// TestPullStopsEarlyWithoutError: a consumer that keeps only the best
// module sees no error, and a cancelled context stops the next pull.
func TestPullStopsEarlyWithoutError(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: spec}
	b := testBatch(t, spec, 300)
	a := newAssembler(t, b, grid, testAssembleConfig(5))
	ctx, cancel := context.WithCancel(context.Background())
	mods, err := a.Take(ctx, 1)
	if err != nil || len(mods) != 1 {
		t.Fatalf("Take(1) = %d modules, %v; want 1, nil", len(mods), err)
	}
	cancel()
	if _, err := a.Take(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Take after cancel: err = %v, want context.Canceled", err)
	}
}

// TestAssembleRejectsMismatchedSpec: a grid must tile the batch's own
// chiplet design. A smaller batch design once assembled zero modules
// with a nil error (its zero-filled frequencies collide), and a larger
// one panicked on the composition buffer.
func TestAssembleRejectsMismatchedSpec(t *testing.T) {
	small := topo.ChipSpec{DenseRows: 1, Width: 8}
	large := topo.ChipSpec{DenseRows: 2, Width: 8}
	for _, c := range []struct{ batch, grid topo.ChipSpec }{{small, large}, {large, small}} {
		b := testBatch(t, c.batch, 40)
		grid := mcm.Grid{Rows: 1, Cols: 2, Spec: c.grid}
		_, _, err := Assemble(context.Background(), b, grid, testAssembleConfig(5))
		if err == nil || !strings.Contains(err.Error(), "batch holds") {
			t.Errorf("%dq batch on %v: err = %v, want a spec mismatch error", c.batch.Qubits(), grid, err)
		}
	}
}
