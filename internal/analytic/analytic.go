// Package analytic provides a closed-form estimate of collision-free
// yield under Gaussian fabrication noise. It reads the Table I criteria
// in the interval form of collision.Checker.Intervals: with the qubits
// placed before q fixed, q violates a criterion it completes exactly
// when its frequency lies outside a window or inside a band.
//
// The window and bands that share one reference qubit r all constrain
// the single normal variable f_q − f_r, so their joint free probability
// is the exact normal mass of the window minus the union of the bands.
// Each two-reference (type 7) band constrains a variable of its own.
// The device yield is the product over these groups: independence is
// assumed only between groups, which share qubits. The estimate is
// therefore exact for a single coupling and approximate beyond it; it
// tracks the Monte Carlo simulation closely and runs thousands of times
// faster, which the frequency-allocation optimiser exploits.
package analytic

import (
	"cmp"
	"math"
	"slices"

	"chipletqc/internal/collision"
	"chipletqc/internal/topo"
)

// phi is the standard normal CDF.
func phi(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// span is a closed interval [lo, hi].
type span struct{ lo, hi float64 }

// freeMass returns P(X ∈ win \ ∪bands) for X ~ N(mu, sd²); at sd = 0 it
// is the indicator of mu in that set. bands must be sorted by lo.
func freeMass(mu, sd float64, win span, bands []span) float64 {
	if sd == 0 {
		if mu < win.lo || mu > win.hi {
			return 0
		}
		for _, b := range bands {
			if b.lo <= mu && mu <= b.hi {
				return 0
			}
		}
		return 1
	}
	// mass is P(lo < X < hi), read from the nearer tail so that masses
	// far above the mean keep their precision.
	mass := func(lo, hi float64) float64 {
		a, b := (lo-mu)/sd, (hi-mu)/sd
		if a > 0 {
			return phi(-a) - phi(-b)
		}
		return phi(b) - phi(a)
	}
	// Sum the gaps the bands leave in the window.
	free, cur := 0.0, win.lo
	for _, b := range bands {
		if cur >= win.hi {
			return free
		}
		if b.lo > cur {
			free += mass(cur, min(b.lo, win.hi))
		}
		cur = max(cur, b.hi)
	}
	if cur < win.hi {
		free += mass(cur, win.hi)
	}
	return free
}

// DeviceYield estimates the collision-free yield of a device under the
// given frequency plan and fabrication spread.
func DeviceYield(d *topo.Device, plan topo.FreqPlan, sigma float64, p collision.Params) float64 {
	return YieldForClasses(d, d.Class, plan, sigma, p)
}

// YieldForClasses estimates yield for an arbitrary candidate class
// assignment on the device's coupling graph. Control direction follows
// topo.Device.ControlOf under the candidate classes.
func YieldForClasses(d *topo.Device, classes []topo.Class, plan topo.FreqPlan, sigma float64, p collision.Params) float64 {
	logY := LogYieldForClasses(d, classes, plan, sigma, p)
	if math.IsInf(logY, -1) {
		return 0
	}
	return math.Exp(logY)
}

// LogYieldForClasses is YieldForClasses in log space, the optimiser's
// objective (avoids underflow on large devices).
func LogYieldForClasses(d *topo.Device, classes []topo.Class, plan topo.FreqPlan, sigma float64, p collision.Params) float64 {
	cd := *d
	cd.Class = classes
	checker := collision.NewChecker(&cd, p)
	mu := make([]float64, d.N)
	for q, c := range classes {
		mu[q] = plan.Target(c)
	}
	all := span{math.Inf(-1), math.Inf(1)}
	var (
		logY  float64
		wins  []collision.Window
		bands []collision.Band
		refs  []int
		group []span
	)
	add := func(f float64) { logY += math.Log(f) }
	for q := 0; q < d.N; q++ {
		wins, bands = checker.Intervals(q, wins[:0], bands[:0])
		refs = refs[:0]
		for _, w := range wins {
			refs = append(refs, w.Ref)
		}
		for _, b := range bands {
			if b.B < 0 {
				refs = append(refs, b.A)
				continue
			}
			// Type 7: f_q − CA·f_A − CB·f_B is a variable of its own.
			x := mu[q] - b.CA*mu[b.A] - b.CB*mu[b.B]
			sd := sigma * math.Sqrt(1+b.CA*b.CA+b.CB*b.CB)
			add(freeMass(x, sd, all, []span{{b.C0 - b.HW, b.C0 + b.HW}}))
		}
		slices.Sort(refs)
		// One group per reference r, on D = f_q − f_r ~ N(μ_q − μ_r, 2σ²).
		for _, r := range slices.Compact(refs) {
			win := all
			group = group[:0]
			for _, w := range wins {
				if w.Ref == r {
					win = span{max(win.lo, w.Lo), min(win.hi, w.Hi)}
				}
			}
			for _, b := range bands {
				if b.B < 0 && b.A == r {
					group = append(group, span{b.C0 - b.HW, b.C0 + b.HW})
				}
			}
			slices.SortFunc(group, func(x, y span) int { return cmp.Compare(x.lo, y.lo) })
			add(freeMass(mu[q]-mu[r], sigma*math.Sqrt2, win, group))
		}
	}
	return logY
}
