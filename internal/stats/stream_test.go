package stats

import (
	"math"
	"testing"
)

func TestWelfordMatchesBatchStatistics(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
	}{
		{"zero samples", nil},
		{"single sample", []float64{3.5}},
		{"two samples", []float64{1, 2}},
		{"mixed signs", []float64{-4, 0, 2.5, 9, -0.25}},
		{"constant", []float64{7, 7, 7, 7}},
		{"large offset", []float64{1e9 + 1, 1e9 + 2, 1e9 + 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w Welford
			for _, x := range tc.xs {
				w.Add(x)
			}
			if w.N() != int64(len(tc.xs)) {
				t.Errorf("N = %d, want %d", w.N(), len(tc.xs))
			}
			if got, want := w.Mean(), Mean(tc.xs); math.Abs(got-want) > 1e-6 {
				t.Errorf("Mean = %v, want %v", got, want)
			}
			if got, want := w.Variance(), Variance(tc.xs); math.Abs(got-want) > 1e-6 {
				t.Errorf("Variance = %v, want %v", got, want)
			}
			if got, want := w.StdDev(), StdDev(tc.xs); math.Abs(got-want) > 1e-6 {
				t.Errorf("StdDev = %v, want %v", got, want)
			}
		})
	}
}

func TestWelfordEdgeValues(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Errorf("single sample: mean %v var %v, want 5, 0", w.Mean(), w.Variance())
	}
}

func TestWelfordMerge(t *testing.T) {
	xs := []float64{0.5, -2, 3, 3, 8, -1.25, 4}
	for split := 0; split <= len(xs); split++ {
		var a, b Welford
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N() != int64(len(xs)) {
			t.Fatalf("split %d: N = %d", split, a.N())
		}
		if math.Abs(a.Mean()-Mean(xs)) > 1e-12 {
			t.Errorf("split %d: merged mean %v, want %v", split, a.Mean(), Mean(xs))
		}
		if math.Abs(a.Variance()-Variance(xs)) > 1e-12 {
			t.Errorf("split %d: merged variance %v, want %v", split, a.Variance(), Variance(xs))
		}
	}
}

func TestWilson(t *testing.T) {
	cases := []struct {
		name      string
		successes int
		trials    int
		wantLo    float64
		wantHi    float64
		tol       float64
	}{
		// Reference values computed from the closed-form Wilson formula.
		{"half", 50, 100, 0.4038, 0.5962, 5e-4},
		{"zero successes", 0, 100, 0, 0.0370, 5e-4},
		{"all successes", 100, 100, 0.9630, 1, 5e-4},
		{"extreme near 0", 1, 1000, 0.0002, 0.0057, 5e-4},
		{"extreme near 1", 999, 1000, 0.9943, 0.9998, 5e-4},
		{"no trials", 0, 0, 0, 1, 0},
		{"single success", 1, 1, 0.2065, 1, 5e-4},
		{"single failure", 0, 1, 0, 0.7935, 5e-4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi := Wilson(tc.successes, tc.trials, Z95)
			if math.Abs(lo-tc.wantLo) > tc.tol || math.Abs(hi-tc.wantHi) > tc.tol {
				t.Errorf("Wilson(%d, %d) = [%v, %v], want [%v, %v]",
					tc.successes, tc.trials, lo, hi, tc.wantLo, tc.wantHi)
			}
			if lo < 0 || hi > 1 || lo > hi {
				t.Errorf("interval [%v, %v] outside [0, 1] or inverted", lo, hi)
			}
		})
	}
}

func TestWilsonHalfWidthShrinksWithTrials(t *testing.T) {
	if !math.IsInf(WilsonHalfWidth(0, 0, Z95), 1) {
		t.Error("zero trials should give +Inf half-width")
	}
	prev := math.Inf(1)
	for _, n := range []int{10, 100, 1000, 10000} {
		hw := WilsonHalfWidth(n/2, n, Z95)
		if hw >= prev {
			t.Errorf("half-width did not shrink at n=%d: %v >= %v", n, hw, prev)
		}
		prev = hw
	}
	// 1% half-width at p=0.5 needs just under 10^4 trials.
	if hw := WilsonHalfWidth(5000, 10000, Z95); hw > 0.01 {
		t.Errorf("half-width at 10^4 trials = %v, want <= 0.01", hw)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	if p.Estimate() != 0 {
		t.Error("empty estimate should be 0")
	}
	if !math.IsInf(p.HalfWidth(Z95), 1) {
		t.Error("empty half-width should be +Inf")
	}
	for i := 0; i < 100; i++ {
		p.Add(i%4 == 0)
	}
	if p.Trials != 100 || p.Successes != 25 {
		t.Fatalf("counter = %d/%d, want 25/100", p.Successes, p.Trials)
	}
	if p.Estimate() != 0.25 {
		t.Errorf("estimate = %v", p.Estimate())
	}
	lo, hi := p.CI(Z95)
	wlo, whi := Wilson(25, 100, Z95)
	if lo != wlo || hi != whi {
		t.Errorf("CI = [%v, %v], want Wilson [%v, %v]", lo, hi, wlo, whi)
	}
}
