package stats

import "math"

// Z95 is the two-sided 95% normal quantile, the z used for every
// confidence interval the adaptive sampling engine reports.
const Z95 = 1.959963984540054

// Welford is an online mean/variance accumulator (Welford's algorithm).
// The zero value is an empty accumulator ready for use. Adding samples
// one at a time keeps the running estimate numerically stable without
// retaining the sample, which is what lets the streaming Monte Carlo
// mode aggregate millions of trials in O(1) memory.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations folded in so far.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased (n-1) sample variance; 0 when fewer
// than two observations are present, matching Variance on slices.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge folds another accumulator into w (Chan et al.'s parallel
// update), so per-worker accumulators can be combined exactly.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// Proportion is a streaming success counter for binary Monte Carlo
// outcomes (collision-free yes/no), with Wilson score interval access.
// The zero value is ready for use.
type Proportion struct {
	Trials    int
	Successes int
}

// Add folds one binary trial outcome into the counter.
func (p *Proportion) Add(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// Estimate returns the point estimate Successes/Trials (0 when empty).
func (p Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// CI returns the Wilson score interval at quantile z.
func (p Proportion) CI(z float64) (lo, hi float64) {
	return Wilson(p.Successes, p.Trials, z)
}

// HalfWidth returns the Wilson interval half-width at quantile z;
// +Inf when no trials have been recorded, so "not tight enough yet"
// is the natural reading of an empty counter.
func (p Proportion) HalfWidth(z float64) float64 {
	return WilsonHalfWidth(p.Successes, p.Trials, z)
}

// Wilson returns the Wilson score interval for a binomial proportion
// with the given successes out of trials at normal quantile z (Z95 for
// 95%). Unlike the normal-approximation (Wald) interval, Wilson stays
// inside [0, 1] and remains well-behaved at the extreme proportions
// that dominate collision-free yield curves (p near 0 for large
// devices, near 1 for small chiplets). Zero trials return the
// uninformative [0, 1].
func Wilson(successes, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	margin := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / denom
	lo, hi = center-margin, center+margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WilsonHalfWidth returns half the Wilson interval width, the quantity
// the adaptive sampling engine drives below its precision target. Zero
// trials return +Inf.
func WilsonHalfWidth(successes, trials int, z float64) float64 {
	if trials <= 0 {
		return math.Inf(1)
	}
	lo, hi := Wilson(successes, trials, z)
	return (hi - lo) / 2
}
