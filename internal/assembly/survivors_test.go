package assembly

import (
	"cmp"
	"context"
	"slices"
	"testing"

	"chipletqc/internal/topo"
)

// TestSurvivorsPrefix pins the die trial's early stop and Fabricate's
// sort: at one and four workers, want = k returns exactly the first k
// survivors of the full batch (all of them when k exceeds the count),
// even though the batch runs on to its next checkpoint, and Fabricate's
// bin is the full survivor list stably sorted by AvgErr.
func TestSurvivorsPrefix(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	chip := topo.BuildChip(spec)
	const size = 400
	for _, workers := range []int{1, 4} {
		cfg := testBatchConfig(31)
		cfg.Workers = workers
		all, err := Survivors(context.Background(), chip, size, 0, cfg, (*Die).Retain)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) < 4 {
			t.Fatalf("workers=%d: only %d survivors of %d dies", workers, len(all), size)
		}
		for _, k := range []int{1, 2, 3, len(all) + 5} {
			got, err := Survivors(context.Background(), chip, size, k, cfg, (*Die).Retain)
			if err != nil {
				t.Fatal(err)
			}
			want := all[:min(k, len(all))]
			if !sameChiplets(got, want) {
				t.Errorf("workers=%d want=%d: got %d survivors, not the first %d of the full batch",
					workers, k, len(got), len(want))
			}
		}

		sorted := slices.Clone(all)
		slices.SortStableFunc(sorted, func(x, y *Chiplet) int { return cmp.Compare(x.AvgErr, y.AvgErr) })
		b := fabricate(t, spec, size, cfg)
		if !sameChiplets(b.Free, sorted) {
			t.Errorf("workers=%d: Fabricate's bin is not the survivors stably sorted by AvgErr", workers)
		}
	}
}

// sameChiplets reports whether two chiplet lists match die for die,
// bit for bit.
func sameChiplets(a, b []*Chiplet) bool {
	return slices.EqualFunc(a, b, sameDieBits)
}
