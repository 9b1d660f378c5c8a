package assembly

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"chipletqc/internal/topo"
)

// TestSortBinMatchesStableCompare pins the radix bin order to the
// comparison sort it replaces: on bins in ascending ID order, sortBin
// must equal slices.SortStableFunc with cmp.Compare on AvgErr, for keys
// chosen to break a float radix key: exact ties, ±0, subnormals, ±Inf,
// NaNs of either sign and payload, negatives, and keys that share all
// but their lowest or a middle byte.
func TestSortBinMatchesStableCompare(t *testing.T) {
	const base = 0.0125
	bits := math.Float64bits(base)
	pool := []float64{
		0, math.Copysign(0, -1), 0.018, 0.018, -0.018, 1, -1,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormal
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000),
		base, math.Nextafter(base, 1), math.Nextafter(base, 0),
		math.Float64frombits(bits ^ 0xFF), math.Float64frombits(bits ^ 0x01),
		math.Float64frombits(bits ^ 0x00FF0000), math.Float64frombits(bits ^ 0x0000FF0000000000),
		-base, math.Float64frombits((bits ^ 0xFF) | 1<<63),
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 256, 2000} {
		bin := make([]*Chiplet, n)
		for i := range bin {
			x := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				x = rng.Float64() * 0.05
			}
			bin[i] = &Chiplet{ID: i, AvgErr: x}
		}
		want := slices.Clone(bin)
		slices.SortStableFunc(want, func(x, y *Chiplet) int { return cmp.Compare(x.AvgErr, y.AvgErr) })
		got := slices.Clone(bin)
		sortBin(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d holds die %d (AvgErr %v), want die %d (AvgErr %v)",
					n, i, got[i].ID, got[i].AvgErr, want[i].ID, want[i].AvgErr)
			}
		}
	}
}

// TestBinVectorsDoNotAlias pins Die.Retain's chunks: every retained
// die's Freq and EdgeErr are capacity-capped, so appending to one
// survivor's vectors reallocates and leaves every other survivor's
// values as they were, at one and four workers.
func TestBinVectorsDoNotAlias(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	for _, workers := range []int{1, 4} {
		cfg := testBatchConfig(5)
		cfg.Workers = workers
		b := fabricate(t, spec, 1500, cfg)
		if n := len(b.Free[0].Freq) + len(b.Free[0].EdgeErr); len(b.Free)*n*8 < 2*workers*chunkBytes {
			t.Fatalf("workers=%d: %d survivors fill too few chunks", workers, len(b.Free))
		}
		before := make([][]float64, len(b.Free))
		for i, c := range b.Free {
			if cap(c.Freq) != len(c.Freq) || cap(c.EdgeErr) != len(c.EdgeErr) {
				t.Fatalf("workers=%d die %d: Freq len/cap %d/%d, EdgeErr len/cap %d/%d",
					workers, c.ID, len(c.Freq), cap(c.Freq), len(c.EdgeErr), cap(c.EdgeErr))
			}
			before[i] = slices.Concat(c.Freq, c.EdgeErr)
		}
		for _, c := range b.Free {
			_ = append(c.Freq, -1, -1)
			_ = append(c.EdgeErr, -1, -1)
		}
		for i, c := range b.Free {
			if !slices.Equal(before[i], slices.Concat(c.Freq, c.EdgeErr)) {
				t.Fatalf("workers=%d: die %d changed when another survivor's vectors grew", workers, c.ID)
			}
		}
	}
}
