package stats

import (
	"fmt"
	"math"
)

// BinnedSeries groups (x, y) observations by x into fixed-width bins and
// keeps the y values per bin. This is exactly the structure the paper
// uses for on-chip fidelity assignment: detuning on x, CX infidelity on
// y, sample gate error from the bin matching a pair's detuning.
type BinnedSeries struct {
	Lo    float64
	Width float64
	Bins  [][]float64
}

// NewBinnedSeries creates a series with n bins of the given width from lo.
func NewBinnedSeries(lo, width float64, n int) *BinnedSeries {
	if n <= 0 {
		panic(fmt.Sprintf("stats: binned series needs n > 0 bins, got %d", n))
	}
	if width <= 0 {
		panic(fmt.Sprintf("stats: binned series needs width > 0, got %g", width))
	}
	bins := make([][]float64, n)
	return &BinnedSeries{Lo: lo, Width: width, Bins: bins}
}

// binIndex returns the bin index for x, clamping to the first/last bin
// so out-of-range observations are retained at the edges (the paper's
// model samples from the nearest characterised detuning interval).
func (b *BinnedSeries) binIndex(x float64) int {
	idx := int(math.Floor((x - b.Lo) / b.Width))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(b.Bins) {
		idx = len(b.Bins) - 1
	}
	return idx
}

// Add records observation y at coordinate x.
func (b *BinnedSeries) Add(x, y float64) {
	i := b.binIndex(x)
	b.Bins[i] = append(b.Bins[i], y)
}

// Bin returns the y values recorded in the bin containing x.
func (b *BinnedSeries) Bin(x float64) []float64 {
	return b.Bins[b.binIndex(x)]
}

// NearestNonEmpty returns the y values of the non-empty bin closest to the
// bin containing x, searching outward symmetrically. It returns nil only
// when every bin is empty.
func (b *BinnedSeries) NearestNonEmpty(x float64) []float64 {
	center := b.binIndex(x)
	if len(b.Bins[center]) > 0 {
		return b.Bins[center]
	}
	for d := 1; d < len(b.Bins); d++ {
		if i := center - d; i >= 0 && len(b.Bins[i]) > 0 {
			return b.Bins[i]
		}
		if i := center + d; i < len(b.Bins) && len(b.Bins[i]) > 0 {
			return b.Bins[i]
		}
	}
	return nil
}

// All returns every y value across all bins (useful for pooled summary
// statistics such as Fig. 7's median/average annotations).
func (b *BinnedSeries) All() []float64 {
	var out []float64
	for _, bin := range b.Bins {
		out = append(out, bin...)
	}
	return out
}
