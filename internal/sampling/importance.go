package sampling

import (
	"fmt"
	"math"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// importance is a sequential conditioned importance sampler: it places
// qubit frequencies one at a time in index order, drawing each from
// the fabrication Gaussian *conditioned on the set of values that keep
// the partial assignment collision-free*, and reweights by the exact
// likelihood ratio.
//
// Every Table I criterion is an interval condition on one frequency
// once the other frequencies it mentions are fixed: types 1, 2, 3, 5,
// 6, and 7 each forbid one or two bands |f_q − center| ≤ T with the
// center an affine function of already-placed frequencies, and type 4
// requires the control/target pair to straddle (f_q confined to a
// window of width |anharmonicity|). Each criterion is attached to the
// highest-indexed qubit it mentions, so by the time qubit q is placed
// the allowed set A_q — the type-4 window intersection minus the union
// of forbidden bands — is fully determined by f_0..f_{q−1}, and after
// the last qubit every criterion has been enforced: the sample is
// collision-free by construction.
//
// Drawing f_q from the truncated Gaussian restricted to A_q and
// multiplying the trial weight by the proposal's own allowed mass and
// density makes the likelihood ratio exact per draw branch:
//
//	w = Π_q w_q ,   w_q = m̃_q            (rejection draw)
//	                w_q = m̃_q·φ(z_q)/g(z_q)  (inversion draw)
//	p̂ = mean(w·y) ,
//
// where m̃_q is the interpolant's mass of A_q, φ the true standard
// normal density, and g the interpolant's density at the drawn z_q.
// High-mass qubits draw by rejection from the plain Gaussian (accepted
// values follow φ restricted to A_q exactly, so the density ratio
// cancels); low-mass qubits invert the interpolant's CDF, and weighting
// by that proposal's exact density keeps the inversion branch unbiased
// regardless of the table's accuracy. The residual bias is the table's
// *mass* accuracy on rejection-drawn qubits (≲1e-7 relative per qubit
// in the bulk regime where rejection applies) plus the ±seqZCut
// truncation (~1e-15 relative, conservative; see gausstab.go) — both
// orders of magnitude below any reachable statistical precision.
// The estimate is unbiased because the proposal's support is exactly
// the collision-free set (and y ≡ 1 there — the engine's independent
// collision audit doubles as a guard: a construction bug could only
// shrink the support's *effective* contribution through y = 0, never
// inflate the estimate... a trial whose partial assignment has no free
// completion gets w = 0 and still counts). The decisive property for
// deep-low-yield scenarios: every trial carries yield information —
// there are no wasted almost-certain failures — and w ≤ 1·(1 + ~1e-5)
// always (each mass factor is a probability and the density ratio is 1
// up to interpolation error), so the weight distribution has no heavy
// upper tail and the variance is finite unconditionally.
//
// Hot-path layout: everything a trial needs is precomputed at
// construction in *standardized z units* — per-qubit plan targets,
// per-window and per-band affine constants pre-divided by sigma — so
// SampleInto touches no special function and performs no division.
// Placed values stay in z units in buf until one final pass converts
// to GHz. Weight accumulation multiplies the per-qubit factors
// m̃_q/g_q into a running product (flushed to log space only when it
// nears overflow) and sums z²/2 terms, so the per-qubit cost is a
// handful of flops rather than a Log/Exp pair.
//
// Stopping is guarded by the Kish effective sample size
// (Σw)²/Σw² ≥ MinESS — an estimate resting on a handful of dominant
// weights must keep sampling no matter how small its nominal variance
// looks — and the standard error is +Inf until at least two trials and
// one free sample have been seen.
//
// Determinism: the constraint tables are pure functions of the device
// and thresholds, each trial consumes only its private (seed, i)
// stream, and PlanBlock is a no-op — so the estimate is bit-identical
// at any worker count.
type importance struct {
	d      *topo.Device
	m      fab.Model
	minESS float64

	mu  []float64 // per-qubit plan target (GHz), hoisted from Plan.Target
	tab *gaussTable

	// Flattened per-qubit constraint tables, all constants in z units.
	winOff []int32
	win    []zWindow
	b1Off  []int32
	b1     []zBand1
	b2Off  []int32
	b2     []zBand2

	w         stats.Welford // weight stats (w·y per trial)
	trials    int
	successes int
}

// zWindow narrows qubit q's allowed z-interval to
// [z_ref + lo, z_ref + hi] for an already-placed qubit ref.
type zWindow struct {
	ref    int32
	lo, hi float64
}

// zBand1 forbids z_q ∈ [z_ref + lo, z_ref + lo + w]: a band whose
// center depends on a single placed qubit with unit coefficient (types
// 1, 2, 3, 5, 6 — all of them).
type zBand1 struct {
	ref   int32
	lo, w float64
}

// zBand2 forbids z_q ∈ [ca·z_a + cb·z_b + lo, … + w]: the type-7 bands
// whose center is an affine combination of two placed qubits.
type zBand2 struct {
	a, b          int32
	ca, cb, lo, w float64
}

// BandLimitError reports a device too densely coupled for the
// sequential proposal: some qubit accumulates more forbidden bands
// than the per-qubit scratch capacity maxSeqBands, so SampleInto could
// not place it without overrunning its stack tables. Surfaced from
// construction (sampling.New) rather than panicking mid-trial.
type BandLimitError struct {
	Qubit, Bands, Limit int
}

func (e *BandLimitError) Error() string {
	return fmt.Sprintf("sampling: qubit %d carries %d forbidden bands (limit %d); device too densely coupled for the sequential proposal",
		e.Qubit, e.Bands, e.Limit)
}

func newImportance(c Spec, d *topo.Device, m fab.Model, p collision.Params) (*importance, error) {
	e := &importance{
		d:      d,
		m:      m,
		minESS: c.MinESS,
		tab:    gaussTab,
		mu:     m.Targets(d),
	}
	edges := d.G.Edges()
	cps := d.ControlPairs()

	// Two passes — count, then fill — so the flattened tables are
	// allocated exactly once (the estimator is built per Simulate call;
	// per-qubit append chains would dominate the engine's allocs/op).
	nWin := make([]int32, d.N+1)
	nB1 := make([]int32, d.N+1)
	nB2 := make([]int32, d.N+1)
	for _, edge := range edges {
		q := max(edge.U, edge.V)
		nWin[q+1]++
		nB1[q+1] += 4 // T1, T2, T3×2
	}
	for _, cp := range cps {
		nB1[max(cp.T1, cp.T2)+1] += 3 // T5, T6×2
		nB2[max(cp.Control, max(cp.T1, cp.T2))+1]++
	}
	for q := 0; q < d.N; q++ {
		if n := int(nB1[q+1] + nB2[q+1]); n > maxSeqBands {
			return nil, &BandLimitError{Qubit: q, Bands: n, Limit: maxSeqBands}
		}
		nWin[q+1] += nWin[q]
		nB1[q+1] += nB1[q]
		nB2[q+1] += nB2[q]
	}
	e.winOff, e.b1Off, e.b2Off = nWin, nB1, nB2
	e.win = make([]zWindow, nWin[d.N])
	e.b1 = make([]zBand1, nB1[d.N])
	e.b2 = make([]zBand2, nB2[d.N])

	invSigma := 1 / m.Sigma
	curW := make([]int32, d.N)
	curB1 := make([]int32, d.N)
	curB2 := make([]int32, d.N)
	copy(curW, nWin)
	copy(curB1, nB1)
	copy(curB2, nB2)
	a := p.Anharmonicity
	// band1 forbids |f_q − (f_o + c0)| ≤ hw, stored pre-standardized:
	// z_q ∈ [z_o + (mu_o + c0 − hw − mu_q)/σ, … + 2hw/σ].
	band1 := func(q, o int, c0, hw float64) {
		e.b1[curB1[q]] = zBand1{ref: int32(o),
			lo: (e.mu[o] + c0 - hw - e.mu[q]) * invSigma, w: 2 * hw * invSigma}
		curB1[q]++
	}
	for _, edge := range edges {
		ctl := d.ControlOf(edge.U, edge.V)
		tgt := d.TargetOf(edge.U, edge.V)
		q, o := ctl, tgt
		if tgt > ctl {
			q, o = tgt, ctl
		}
		// Type 4: the target must lie in [f_control + a, f_control].
		lo, hi := 0.0, -a
		if q == tgt {
			lo, hi = a, 0
		}
		e.win[curW[q]] = zWindow{ref: int32(o),
			lo: (e.mu[o] + lo - e.mu[q]) * invSigma,
			hi: (e.mu[o] + hi - e.mu[q]) * invSigma}
		curW[q]++
		// Type 1: f_i = f_j ± T1 — symmetric in the pair.
		band1(q, o, 0, p.T1)
		// Type 2: f_control + a/2 = f_target ± T2.
		if q == tgt {
			band1(q, o, a/2, p.T2)
		} else {
			band1(q, o, -a/2, p.T2)
		}
		// Type 3: f_i = f_j + a ± T3, either orientation.
		band1(q, o, a, p.T3)
		band1(q, o, -a, p.T3)
	}
	// band2 forbids |f_q − (ca·f_a + cb·f_b + c0)| ≤ hw, standardized
	// with the placed qubits' own coefficients kept on their z values.
	band2 := func(q, qa, qb int, ca, cb, c0, hw float64) {
		e.b2[curB2[q]] = zBand2{a: int32(qa), b: int32(qb), ca: ca, cb: cb,
			lo: (ca*e.mu[qa] + cb*e.mu[qb] + c0 - hw - e.mu[q]) * invSigma,
			w:  2 * hw * invSigma}
		curB2[q]++
	}
	for _, cp := range cps {
		i, j, k := cp.Control, cp.T1, cp.T2
		// Types 5 and 6 mention only the two targets.
		q, o := j, k
		if k > j {
			q, o = k, j
		}
		band1(q, o, 0, p.T5)
		band1(q, o, a, p.T6)
		band1(q, o, -a, p.T6)
		// Type 7: 2f_i + a = f_j + f_k ± T7, attached to the last-placed
		// of the triple.
		switch {
		case i > j && i > k:
			band2(i, j, k, 0.5, 0.5, -a/2, p.T7/2)
		case j > k:
			band2(j, i, k, 2, -1, a, p.T7)
		default:
			band2(k, i, j, 2, -1, a, p.T7)
		}
	}
	// Pre-sort each qubit's bands by their constant offset: bands sharing
	// a reference qubit then stay in realized order every trial, so the
	// hot path's insertion sort runs on nearly-sorted input.
	for q := 0; q < d.N; q++ {
		b := e.b1[nB1[q]:nB1[q+1]]
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && b[j-1].lo > b[j].lo; j-- {
				b[j-1], b[j] = b[j], b[j-1]
			}
		}
	}
	return e, nil
}

func (e *importance) Name() string { return Importance }

// FreeByConstruction reports that every finite-weight sample this
// estimator produces satisfies the collision criteria by construction,
// so the engine may downgrade its independent per-trial collision check
// to a sampled audit.
func (e *importance) FreeByConstruction() bool { return true }

func (e *importance) PlanBlock(lo, hi int) {}

func (e *importance) SampleInto(r *runner.TrialRNG, i int, buf []float64) float64 {
	var starts, ends [maxSeqBands]float64
	var pLo, pHi, pMass [maxSeqBands + 1]float64
	tab := e.tab
	n := e.d.N
	// Placed values accumulate in z units; the weight accumulates as a
	// running product of m̃_q/g_q factors (flushed to logw before it can
	// overflow — 1/g can reach ~1e16 per deep-tail qubit) plus Σ z²/2
	// for the true-density numerator, folded together at the end.
	prod, ssum, logw := 1.0, 0.0, 0.0
	placed := 0
	for q := 0; q < n; q++ {
		w0, w1 := e.winOff[q], e.winOff[q+1]
		b10, b11 := e.b1Off[q], e.b1Off[q+1]
		b20, b21 := e.b2Off[q], e.b2Off[q+1]
		if w0 == w1 && b10 == b11 && b20 == b21 {
			// Unconstrained qubit: the conditioned proposal is the plain
			// fabrication Gaussian — draw it exactly, weight factor 1.
			buf[q] = r.NormFloat64()
			continue
		}
		// Allowed interval from the type-4 windows, truncated at ±seqZCut.
		zLo, zHi := -seqZCut, seqZCut
		for _, wn := range e.win[w0:w1] {
			if v := buf[wn.ref] + wn.lo; v > zLo {
				zLo = v
			}
			if v := buf[wn.ref] + wn.hi; v < zHi {
				zHi = v
			}
		}
		nb := 0
		if zHi > zLo {
			// Forbidden bands clipped to the window, insertion-sorted by
			// start.
			for _, b := range e.b1[b10:b11] {
				za := buf[b.ref] + b.lo
				zb := za + b.w
				if zb <= zLo || za >= zHi {
					continue
				}
				if za < zLo {
					za = zLo
				}
				if zb > zHi {
					zb = zHi
				}
				at := nb
				for at > 0 && starts[at-1] > za {
					starts[at], ends[at] = starts[at-1], ends[at-1]
					at--
				}
				starts[at], ends[at] = za, zb
				nb++
			}
			for _, b := range e.b2[b20:b21] {
				za := b.ca*buf[b.a] + b.cb*buf[b.b] + b.lo
				zb := za + b.w
				if zb <= zLo || za >= zHi {
					continue
				}
				if za < zLo {
					za = zLo
				}
				if zb > zHi {
					zb = zHi
				}
				at := nb
				for at > 0 && starts[at-1] > za {
					starts[at], ends[at] = starts[at-1], ends[at-1]
					at--
				}
				starts[at], ends[at] = za, zb
				nb++
			}
		}
		var z, g, total float64
		np := 0
		if nb == 0 {
			// The window survives whole (no in-window bands): one piece,
			// no gap scan.
			if zHi > zLo {
				total = tab.mass(zLo, zHi)
			}
			pLo[0], pHi[0], pMass[0] = zLo, zHi, total
			np = 1
		} else {
			// Allowed pieces are the gaps between bands; accumulate their
			// masses.
			cur := zLo
			for bi := 0; bi < nb; bi++ {
				if s := starts[bi]; s > cur {
					if m := tab.mass(cur, s); m > 0 {
						pLo[np], pHi[np], pMass[np] = cur, s, m
						total += m
						np++
					}
				}
				if ends[bi] > cur {
					cur = ends[bi]
				}
			}
			if zHi > cur {
				if m := tab.mass(cur, zHi); m > 0 {
					pLo[np], pHi[np], pMass[np] = cur, zHi, m
					total += m
					np++
				}
			}
		}
		if total <= 0 {
			// Dead end: no collision-free completion of this partial
			// assignment. The trial keeps its zero weight; convert what
			// was placed and fill the rest with plan targets so the
			// buffer stays finite.
			for j := 0; j < q; j++ {
				buf[j] = e.mu[j] + e.m.Sigma*buf[j]
			}
			for j := q; j < n; j++ {
				buf[j] = e.mu[j]
			}
			return math.Inf(-1)
		}
		// Rejection fast path: when the allowed mass is large, drawing
		// the plain Gaussian until it lands in the allowed set beats
		// inversion by ~5× — an accepted draw follows φ restricted to A_q
		// exactly, so the density ratio cancels and the weight factor is
		// the allowed mass alone. A bounded attempt budget keeps the
		// fallback deterministic: on exhaustion (probability ≤ 2⁻³²) the
		// qubit falls through to inversion, whose weight is exact for
		// *its* branch — branch-conditional weights stay unbiased because
		// the rejected attempts are independent of the final draw.
		drawn := false
		if total >= seqRejectMin {
			for try := 0; try < seqRejectCap; try++ {
				z = r.NormFloat64()
				if z < zLo || z > zHi {
					continue
				}
				free := true
				for k := 0; k < nb; k++ {
					if z < starts[k] {
						break
					}
					if z <= ends[k] {
						free = false
						break
					}
				}
				if free {
					drawn = true
					break
				}
			}
		}
		if drawn {
			prod *= total
		} else {
			// Inversion path: select a piece by the uniform draw, invert
			// the interpolant's CDF within it, and weight by the
			// interpolant's own mass and density — exact for the proposal
			// actually drawn from.
			v := r.Float64() * total
			pi := 0
			for pi < np-1 && v > pMass[pi] {
				v -= pMass[pi]
				pi++
			}
			z, g = tab.invMass(pLo[pi], pHi[pi], v, pMass[pi])
			prod *= total / g
			ssum += 0.5 * z * z
			placed++
		}
		buf[q] = z
		if prod > 1e250 || prod < 1e-250 {
			logw += math.Log(prod)
			prod = 1
		}
	}
	sigma := e.m.Sigma
	for q := 0; q < n; q++ {
		buf[q] = e.mu[q] + sigma*buf[q]
	}
	return logw + math.Log(prod) - ssum - float64(placed)*lnSqrt2Pi
}

// maxSeqBands bounds the forbidden bands attached to one qubit: a
// lattice qubit has a handful of couplings and control-pair triples,
// each contributing at most a few bands. Construction validates every
// qubit against the bound (see BandLimitError); SampleInto keeps its
// scratch on the stack.
const maxSeqBands = 64

const (
	// seqRejectMin is the allowed-mass threshold above which SampleInto
	// samples a qubit by rejection from the plain Gaussian instead of
	// CDF inversion: at mass ≥ 0.5 the expected attempt count is ≤ 2 and
	// a NormFloat64 draw plus a band scan is ~5× cheaper than the Newton
	// inversion chain. Below the threshold — the genuinely rare-event
	// qubits — inversion always wins.
	seqRejectMin = 0.5
	// seqRejectCap bounds the rejection attempts so a trial's RNG
	// consumption is finite; with mass ≥ seqRejectMin the cap is reached
	// with probability ≤ 2⁻³², upon which the qubit falls back to exact
	// inversion.
	seqRejectCap = 32
)

// gaussMass returns P(a < Z < b) for standard normal Z, computed from
// the nearer tail so deep-tail intervals keep relative precision. It is
// the exact (libm erf) reference for the hot path's gaussTable.
func gaussMass(a, b float64) float64 {
	switch {
	case a >= 0:
		return 0.5 * (math.Erfc(a/math.Sqrt2) - math.Erfc(b/math.Sqrt2))
	case b <= 0:
		return 0.5 * (math.Erfc(-b/math.Sqrt2) - math.Erfc(-a/math.Sqrt2))
	default:
		return 0.5 * (math.Erf(b/math.Sqrt2) + math.Erf(-a/math.Sqrt2))
	}
}

// gaussInterp returns the z with P(a < Z ≤ z) = rem for standard
// normal Z, inverting from the nearer tail; the result is clamped to
// [a, b] so rounding can never escape the allowed piece. Exact (libm
// erfcinv) reference for gaussTable.invMass.
func gaussInterp(a, b, rem float64) float64 {
	var z float64
	if a >= 0 {
		// Work in the upper tail: complementary mass decreases from
		// erfc(a/√2)/2 by rem.
		q := 0.5*math.Erfc(a/math.Sqrt2) - rem
		z = math.Sqrt2 * math.Erfcinv(2*math.Max(q, math.SmallestNonzeroFloat64))
	} else {
		p := 0.5*math.Erfc(-a/math.Sqrt2) + rem
		z = -math.Sqrt2 * math.Erfcinv(2*math.Min(math.Max(p, math.SmallestNonzeroFloat64), 1))
	}
	return math.Min(math.Max(z, a), b)
}

func (e *importance) Observe(i int, ok bool, logw float64) {
	e.trials++
	wy := 0.0
	// A dead-ended trial (logw = -Inf) hands the engine a plan-target
	// buffer, which the checker reports free; the -Inf weight marks it a
	// zero-weight failure regardless.
	if ok && !math.IsInf(logw, -1) {
		e.successes++
		wy = math.Exp(logw)
	}
	e.w.Add(wy)
}

// ess returns the Kish effective sample size (Σw)²/Σw² of the weighted
// trials (0 before any free sample).
func (e *importance) ess() float64 {
	n := float64(e.w.N())
	if n == 0 || e.w.Mean() == 0 {
		return 0
	}
	sum := n * e.w.Mean()
	sum2 := (n-1)*e.w.Variance() + n*e.w.Mean()*e.w.Mean()
	return sum * sum / sum2
}

// estimate returns the point estimate and its standard error; se is
// +Inf until at least two trials and one free sample have been seen.
func (e *importance) estimate() (p, se float64) {
	p = e.w.Mean()
	if e.w.N() < 2 || e.successes == 0 {
		return p, math.Inf(1)
	}
	return p, math.Sqrt(e.w.Variance() / float64(e.w.N()))
}

func (e *importance) HalfWidth(z float64) float64 {
	if e.ess() < e.minESS {
		return math.Inf(1)
	}
	_, se := e.estimate()
	return z * se
}

func (e *importance) Snapshot(z float64) Estimate {
	p, se := e.estimate()
	lo, hi := 0.0, 1.0
	if !math.IsInf(se, 1) {
		lo, hi = p-z*se, p+z*se
	}
	return Estimate{
		Estimator: Importance,
		Trials:    e.trials,
		Successes: e.successes,
		Yield:     p,
		ESS:       e.ess(),
		CILo:      math.Max(0, lo),
		CIHi:      math.Min(1, hi),
	}
}
