package assembly

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"chipletqc/internal/mcm"
	"chipletqc/internal/topo"
)

// TestTakeBestMatchesFullBin: for every k from 1 to past a full drain,
// and for k = 0, TakeBest returns NewAssembler(Fabricate(…)).Take(k)
// bit for bit, at one and four workers. The last case is a batch KGD-
// tested under the relaxed-thresholds preset (Table I half-widths
// halved) and assembled under the paper's params: its dies collide
// across seams, and the set-asides must make TakeBest deepen its
// prefix at least once.
func TestTakeBestMatchesFullBin(t *testing.T) {
	relaxed := testBatchConfig(8)
	relaxed.Params.T1 /= 2
	relaxed.Params.T2 /= 2
	relaxed.Params.T3 /= 2
	relaxed.Params.T5 /= 2
	relaxed.Params.T6 /= 2
	cases := []struct {
		grid mcm.Grid
		size int
		bcfg BatchConfig
	}{
		{mcm.Grid{Rows: 2, Cols: 2, Spec: topo.Catalog[0].Spec}, 240, testBatchConfig(3)},
		{mcm.Grid{Rows: 1, Cols: 3, Spec: topo.Catalog[1].Spec}, 240, testBatchConfig(4)},
		{mcm.Grid{Rows: 1, Cols: 2, Spec: topo.Catalog[2].Spec}, 200, testBatchConfig(5)},
		{mcm.Grid{Rows: 2, Cols: 3, Spec: topo.Catalog[0].Spec}, 400, relaxed},
	}
	ctx := context.Background()
	for ci, c := range cases {
		deepened := false
		for _, workers := range []int{1, 4} {
			bcfg, acfg := c.bcfg, testAssembleConfig(11)
			bcfg.Workers = workers
			b := fabricate(t, c.grid.Spec, c.size, bcfg)
			all := take(t, newAssembler(t, b, c.grid, acfg), 0)
			if len(all) < 3 {
				t.Fatalf("%v: %d modules from the full bin, need at least 3", c.grid, len(all))
			}
			for k := 0; k <= len(all)+1; k++ {
				want := take(t, newAssembler(t, b, c.grid, acfg), k)
				got, dev, chip, prefix, err := takeBest(ctx, c.grid, c.size, k, bcfg, acfg)
				if err != nil {
					t.Fatalf("%v workers=%d k=%d: %v", c.grid, workers, k, err)
				}
				if d := sameModuleBits(got, want); d != "" {
					t.Fatalf("%v workers=%d k=%d: %s", c.grid, workers, k, d)
				}
				if dev.N != c.grid.Qubits() || chip.N != b.Chip.N {
					t.Fatalf("%v: device of %d qubits and %dq chip", c.grid, dev.N, chip.N)
				}
				if k > 0 && prefix > 2*c.grid.Chips()*k {
					deepened = true
				}
			}
		}
		if last := ci == len(cases)-1; last && !deepened {
			t.Errorf("%v relaxed KGD: no pull deepened its prefix", c.grid)
		}
	}
}

// sameModuleBits is sameModules with every member compared too, and
// every float compared bit for bit.
func sameModuleBits(got, want []*AssembledMCM) string {
	if d := sameModules(got, want); d != "" {
		return d
	}
	for i := range want {
		g, w := got[i], want[i]
		if !sameBits(g.Freq, w.Freq) || math.Float64bits(g.EAvg()) != math.Float64bits(w.EAvg()) {
			return fmt.Sprintf("module %d: frequency or E_avg bits differ", i)
		}
		for e, v := range w.LinkErr {
			if math.Float64bits(g.LinkErr[e]) != math.Float64bits(v) {
				return fmt.Sprintf("module %d: link %v error bits differ", i, e)
			}
		}
		if !sameChiplets(g.Members, w.Members) {
			return fmt.Sprintf("module %d: members differ", i)
		}
	}
	return ""
}

func sameDieBits(x, y *Chiplet) bool {
	return x.ID == y.ID && math.Float64bits(x.AvgErr) == math.Float64bits(y.AvgErr) &&
		sameBits(x.Freq, y.Freq) && sameBits(x.EdgeErr, y.EdgeErr)
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestTakeBestRebuildFidelity: rebuilding every survivor from its rank
// key gives Fabricate's bin, in order and bit for bit, and a rebuild
// that disagrees with its key is an error naming the die, whether the
// key ranks the die elsewhere (one flipped bit) or names a die that
// failed KGD.
func TestTakeBestRebuildFidelity(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	const size = 500
	cfg := testBatchConfig(21)
	b := fabricate(t, spec, size, cfg)
	trial := newDieTrial(topo.BuildChip(spec), cfg)
	keys, err := survivors(context.Background(), trial, size, 0, 1, func(d *Die) rankKey {
		return rankKey{orderKey(d.AvgErr), int32(d.ID)}
	})
	if err != nil {
		t.Fatal(err)
	}
	w := trial.newWorker()
	got, err := w.rebuild(bestKeys(keys, len(keys)))
	if err != nil {
		t.Fatal(err)
	}
	if !sameChiplets(got, b.Free) {
		t.Fatalf("the %d rebuilt dies are not Fabricate's bin of %d, in order and bit for bit", len(got), len(b.Free))
	}

	flipped := keys[len(keys)/2]
	flipped.key ^= 1
	_, err = w.rebuild([]rankKey{keys[0], flipped})
	if want := fmt.Sprintf("die %d has rank key", flipped.id); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("flipped key: err = %v, want one containing %q", err, want)
	}
	lost := int32(0)
	for _, k := range keys {
		if k.id != lost {
			break
		}
		lost++
	}
	_, err = w.rebuild([]rankKey{{keys[0].key, lost}})
	if want := fmt.Sprintf("die %d collides", lost); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("die %d failed KGD: err = %v, want one containing %q", lost, err, want)
	}
}

// TestBestKeysMatchesStableSort: bestKeys is the first n keys of a
// stable sort by key, on both of its paths (the bounded scan and the
// full sort), with ties, the extremes and runs of descending keys.
func TestBestKeysMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{0, 1, 5, 100, 3000} {
		keys := make([]rankKey, size)
		for i := range keys {
			k := uint64(rng.Intn(40))
			switch rng.Intn(8) {
			case 0:
				k = math.MaxUint64
			case 1:
				k = 0
			case 2:
				k = uint64(size - i)
			}
			keys[i] = rankKey{k, int32(i)}
		}
		want := slices.Clone(keys)
		slices.SortStableFunc(want, func(x, y rankKey) int { return cmp.Compare(x.key, y.key) })
		for _, n := range []int{0, 1, 2, 7, size / 16, size/16 + 1, size / 2, size, size + 3} {
			if got := bestKeys(keys, n); !slices.Equal(got, want[:min(max(n, 0), size)]) {
				t.Fatalf("size=%d n=%d: bestKeys is not the stable sort's prefix", size, n)
			}
		}
	}
}

// BenchmarkTakeBest measures Fig. 10's MCM side at quick scale: the
// best two modules of a 2×5 grid of 10q chiplets from a batch of 500
// dies per position.
func BenchmarkTakeBest(b *testing.B) {
	grid := mcm.Grid{Rows: 2, Cols: 5, Spec: topo.Catalog[0].Spec}
	cfg := testBatchConfig(1)
	cfg.Workers = runtime.GOMAXPROCS(0)
	acfg := testAssembleConfig(1)
	for b.Loop() {
		if _, _, _, err := TakeBest(context.Background(), grid, 500*grid.Chips(), 2, cfg, acfg); err != nil {
			b.Fatal(err)
		}
	}
}
