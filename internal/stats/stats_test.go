package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(want))
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Errorf("Min = %v, want -1", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v, want 7", Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice reducers should return 0")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Quantile 0.25 = %v, want 2.5", got)
	}
	if got := Quantile(xs, -1); got != 0 {
		t.Errorf("Quantile clamps low: got %v", got)
	}
	if got := Quantile(xs, 2); got != 10 {
		t.Errorf("Quantile clamps high: got %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile empty = %v, want 0", got)
	}
}

func TestQuantileOrderProperty(t *testing.T) {
	// Property: quantiles are monotone in q and bounded by min/max.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q25, q50, q75 := Quantile(xs, 0.25), Quantile(xs, 0.5), Quantile(xs, 0.75)
		return q25 <= q50 && q50 <= q75 && Min(xs) <= q25 && q75 <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summarize basic fields wrong: %+v", s)
	}
	if !almostEqual(s.Q1, 2, 1e-12) || !almostEqual(s.Q3, 4, 1e-12) {
		t.Errorf("Summarize quartiles wrong: %+v", s)
	}
	if !almostEqual(s.IQR(), 2, 1e-12) {
		t.Errorf("IQR = %v, want 2", s.IQR())
	}
	var zero Summary
	if Summarize(nil) != zero {
		t.Error("Summarize(nil) should be zero value")
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if !sort.Float64sAreSorted(xs) {
		// The input was unsorted; ensure it stayed in original order.
		if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
			t.Errorf("Summarize mutated input: %v", xs)
		}
	}
}

func TestBinnedSeriesPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBinnedSeries(0, -1, 5) },
		func() { NewBinnedSeries(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid bin geometry")
				}
			}()
			fn()
		}()
	}
}

func TestBinnedSeries(t *testing.T) {
	b := NewBinnedSeries(0, 0.1, 5)
	b.Add(0.05, 1)
	b.Add(0.07, 2)
	b.Add(0.45, 3)
	if got := b.Bins[b.Index(0.05)]; len(got) != 2 {
		t.Errorf("bin of 0.05 = %v, want 2 values", got)
	}
	if got := b.Bins[b.Index(0.49)]; len(got) != 1 || got[0] != 3 {
		t.Errorf("bin of 0.49 = %v, want [3]", got)
	}
	if got := b.All(); len(got) != 3 {
		t.Errorf("All = %v, want 3 values", got)
	}
}

func TestBinnedSeriesNearestNonEmpty(t *testing.T) {
	b := NewBinnedSeries(0, 1, 5)
	b.Add(4.5, 42) // only bin 4 is populated
	got := b.NearestNonEmpty(0.5)
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("NearestNonEmpty should find bin 4: %v", got)
	}
	empty := NewBinnedSeries(0, 1, 3)
	if empty.NearestNonEmpty(1.5) != nil {
		t.Error("NearestNonEmpty on empty series should be nil")
	}
	// When the containing bin has data it wins over neighbours.
	b.Add(0.5, 7)
	got = b.NearestNonEmpty(0.5)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("NearestNonEmpty should prefer own bin: %v", got)
	}
}

func TestNormalSampler(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if got := Normal(r, 5, 0); got != 5 {
		t.Errorf("Normal with sigma 0 = %v, want 5", got)
	}
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = Normal(r, 5.0, 0.014)
	}
	if m := Mean(xs); !almostEqual(m, 5.0, 1e-3) {
		t.Errorf("Normal sample mean = %v, want ~5", m)
	}
	if s := StdDev(xs); !almostEqual(s, 0.014, 5e-4) {
		t.Errorf("Normal sample stddev = %v, want ~0.014", s)
	}
}

func TestLogNormalParamsRoundTrip(t *testing.T) {
	// The paper's link error statistics: mean 7.5%, median 5.6%.
	mu, sigma := LogNormalParams(0.075, 0.056)
	r := rand.New(rand.NewSource(2))
	n := 400000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = LogNormal(r, mu, sigma)
	}
	if m := Mean(xs); !almostEqual(m, 0.075, 2e-3) {
		t.Errorf("lognormal mean = %v, want ~0.075", m)
	}
	if med := Median(xs); !almostEqual(med, 0.056, 2e-3) {
		t.Errorf("lognormal median = %v, want ~0.056", med)
	}
}

func TestLogNormalParamsDegenerate(t *testing.T) {
	mu, sigma := LogNormalParams(0.05, 0.05)
	if sigma != 0 {
		t.Errorf("equal mean/median should give sigma 0, got %v", sigma)
	}
	if !almostEqual(math.Exp(mu), 0.05, 1e-12) {
		t.Errorf("exp(mu) = %v, want 0.05", math.Exp(mu))
	}
	// mean < median (impossible for lognormal) degrades gracefully.
	_, sigma = LogNormalParams(0.04, 0.05)
	if sigma != 0 {
		t.Errorf("mean < median should clamp sigma to 0, got %v", sigma)
	}
}

func TestClampAndPerm(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
	p := Perm(r, 10)
	present := make([]bool, 10)
	for _, v := range p {
		present[v] = true
	}
	for i, ok := range present {
		if !ok {
			t.Errorf("Perm missing value %d", i)
		}
	}
}
