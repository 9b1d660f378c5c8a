package assembly

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"chipletqc/internal/mcm"
	"chipletqc/internal/topo"
)

// rankKey is a KGD survivor's place in the bin: Fabricate orders the
// bin by (key, id), and id names the die to rebuild.
type rankKey struct {
	key uint64 // orderKey(AvgErr)
	id  int32
}

// TakeBest returns the best k modules of grid, or every module when
// k <= 0, from a batch of `size` chiplets of grid.Spec: exactly what
// NewAssembler(Fabricate(ctx, grid.Spec, size, bcfg), grid, acfg) pulls
// with Take(ctx, k). It also returns the module device and the chiplet
// that AssembledMCM.Errors reads.
//
// It keeps no bin. Survivors keeps a rank key per die, a scan selects
// the best n keys in the bin's order, and only those dies are rebuilt
// from their (Seed, die index) streams and assembled. The assembler's
// choices depend only on the bin's order and its own seeded RNG, so on
// a bin prefix it makes the full bin's choices until fewer than
// grid.Chips() candidates remain. If Take comes up short on a prefix,
// TakeBest doubles n and assembles afresh, until the prefix is the
// whole bin. A rebuilt die that does not match its key is an error.
func TakeBest(ctx context.Context, grid mcm.Grid, size, k int, bcfg BatchConfig,
	acfg AssembleConfig) ([]*AssembledMCM, *topo.Device, *topo.Chip, error) {
	mods, dev, chip, _, err := takeBest(ctx, grid, size, k, bcfg, acfg)
	return mods, dev, chip, err
}

// takeBest is TakeBest, also returning the length of the bin prefix
// that its modules were assembled from.
func takeBest(ctx context.Context, grid mcm.Grid, size, k int, bcfg BatchConfig,
	acfg AssembleConfig) ([]*AssembledMCM, *topo.Device, *topo.Chip, int, error) {
	if size > math.MaxInt32 {
		return nil, nil, nil, 0, fmt.Errorf("assembly: batch size %d exceeds the rank key's die index", size)
	}
	chip := topo.BuildChip(grid.Spec)
	trial := newDieTrial(chip, bcfg)
	keys, err := survivors(ctx, trial, size, 0, bcfg.Workers, func(d *Die) rankKey {
		return rankKey{orderKey(d.AvgErr), int32(d.ID)}
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	n := len(keys)
	if chips := grid.Chips(); k > 0 && chips > 0 && k < n/(2*chips) {
		n = 2 * chips * k
	}
	w := trial.newWorker()
	params := bcfg.Params
	for {
		free, err := w.rebuild(bestKeys(keys, n))
		if err != nil {
			return nil, nil, nil, 0, err
		}
		b := &Batch{Spec: grid.Spec, Chip: chip, Size: size, Free: free, kgd: &params}
		a, err := NewAssembler(b, grid, acfg)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		mods, err := a.Take(ctx, k)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if len(mods) == k || n == len(keys) {
			return mods, a.Device(), chip, n, nil
		}
		n = min(2*n, len(keys))
	}
}

// bestKeys returns the n smallest keys in (key, id) order, which is
// Fabricate's bin order. keys arrive in id order, so a key goes after
// every equal key already kept. A short prefix is one scan that keeps
// the best n sorted; a long one, where that scan's insertions would
// cost more than a sort, sorts every key.
func bestKeys(keys []rankKey, n int) []rankKey {
	if n <= 0 {
		return nil
	}
	if 16*n >= len(keys) {
		all := slices.Clone(keys)
		slices.SortStableFunc(all, func(x, y rankKey) int { return cmp.Compare(x.key, y.key) })
		return all[:min(n, len(all))]
	}
	best := make([]rankKey, 0, n)
	for _, k := range keys {
		if len(best) == n {
			if k.key >= best[n-1].key {
				continue
			}
			best = best[:n-1]
		}
		at := sort.Search(len(best), func(j int) bool { return best[j].key > k.key })
		best = slices.Insert(best, at, k)
	}
	return best
}

// rebuild re-runs the dies that keys name, in key order, into one slab,
// and checks each against its key: a die that now collides or ranks
// elsewhere is an error naming it.
func (w *dieWorker) rebuild(keys []rankKey) ([]*Chiplet, error) {
	w.chips = make([]Chiplet, len(keys))
	w.vecs = make([]float64, len(keys)*(w.trial.qubits+len(w.trial.edges)))
	free := make([]*Chiplet, len(keys))
	for i, k := range keys {
		if !w.run(int(k.id)) {
			return nil, fmt.Errorf("assembly: rebuilt die %d collides, but it survived KGD", k.id)
		}
		if got := orderKey(w.die.AvgErr); got != k.key {
			return nil, fmt.Errorf("assembly: rebuilt die %d has rank key %#x (mean error %v), want %#x",
				k.id, got, w.die.AvgErr, k.key)
		}
		free[i] = w.die.Retain()
	}
	return free, nil
}
