package sampling

import (
	"math"

	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// stratified partitions the fabrication draw into radial strata of the
// differential mode and recombines with exact slice masses.
//
// Every collision criterion compares frequency differences (f_i − f_j,
// with fixed offsets), so the common mode — the component that shifts
// all qubits together — never affects the outcome. The informative
// coordinate to stratify is therefore the squared differential radius
// u = ‖g − ḡ‖² of the standard-normal fabrication draw g, which is
// chi-square with N−1 degrees of freedom. Each trial draws u by
// inverse CDF from the chi-square law conditioned on its stratum's
// radial slice and rescales the differential part to match — the
// Gaussian draw supplies only the direction, uniform on the zero-sum
// sphere:
//
//	f_q = target_q + sigma·(ḡ + scale·g⊥_q) .
//
// The slices are warped quantile slices of the target radial law:
// stratum s covers target-CDF range [β_s, β_{s+1}) with
//
//	β_s = (s/S)^(1/t²) ,
//
// so its target mass is exactly mass_s = β_{s+1} − β_s, by
// construction, with no quadrature. Tilt t < 1 packs slices toward
// small radii — for deep-low-yield scenarios the rare collision-free
// region is the neighbourhood of the ideal frequency plan (the plan
// itself is collision-free, and the criteria are two-sided bands in
// the pairwise differences), so that is where resolution pays — while
// t > 1 packs them outward; t = 1 is the classic equiprobable split.
// Drawing the stratum uniformly and then u from the target conditional
// makes the effective proposal density q(u) = Σ_s (1/S)·f(u)/mass_s on
// slice s, whose likelihood ratio is piecewise constant,
//
//	w = f/q = S·mass_s   on slice s ,
//
// exactly — so within a stratum the weighted indicator w·y is a scaled
// Bernoulli, the per-stratum effective sample size is the plain
// success count, and Neyman allocation can aim trials at the radial
// shells where successes actually vary. Recombination is the textbook
// stratified estimator on w·y: p̂ = Σ mean_s/S, SE² = Σ var_s/(S²·n_s)
// — unbiased for the true yield because E[w·y] per stratum is
// P(free ∧ slice s)·S. Allocation is proportional (i mod S) or Neyman
// (per-block greedy deficit on the per-stratum sd of w·y, planned at
// checkpoints).
//
// Stopping is guarded three ways: the standard error is +Inf until
// every stratum has at least two trials and a success has been seen;
// HalfWidth stays +Inf until the per-stratum-summed effective success
// count clears MinESS — an estimate resting on a handful of heavy free
// trials must keep sampling no matter how small its nominal variance
// looks; and the collective missing-mass bound over zero-success strata
// must fall below half the reported half-width, so the interval cannot
// close tightly around a value that silently omits unexplored shells.
type stratified struct {
	d      *topo.Device
	m      fab.Model
	tilt   float64
	strata int
	neyman bool
	minESS float64

	k     int       // chi-square degrees of freedom, N-1
	beta  []float64 // slice boundaries in target-CDF space, len S+1
	mass  []float64 // exact target mass per slice, beta[s+1]-beta[s]
	logW  []float64 // per-stratum log likelihood ratio, ln(S*mass_s)
	massW []float64 // per-stratum likelihood ratio, S*mass_s

	// Hot-path invariants, hoisted at construction: per-qubit plan
	// targets (GHz), and per-stratum quantile seed tables — stratSeedN+1
	// chi-square quantiles at evenly spaced CDF nodes across each slice,
	// so a trial's inverse-CDF draw starts from a linear interpolation
	// within ~1e-3 of the root and the exact Newton refinement in
	// stats.ChiSquareQuantile converges in a step or two. The drawn
	// radius stays exact (the table only seeds), so the piecewise-
	// constant likelihood ratio is untouched.
	mu    []float64
	seedQ []float64 // strata × (stratSeedN+1) quantile nodes

	perStratum []stats.Welford // w·y stats, index = stratum
	alloc      *allocator      // Neyman block plans (nil when proportional)
	trials     int
	successes  int
}

// stratSeedN is the number of seed-table cells per stratum; the table
// holds stratSeedN+1 quantile nodes per slice.
const stratSeedN = 16

func newStratified(c Spec, d *topo.Device, m fab.Model) *stratified {
	e := &stratified{
		d:          d,
		m:          m,
		tilt:       c.Tilt,
		strata:     c.Strata,
		neyman:     c.Allocation == Neyman,
		minESS:     c.MinESS,
		k:          d.N - 1,
		beta:       make([]float64, c.Strata+1),
		mass:       make([]float64, c.Strata),
		logW:       make([]float64, c.Strata),
		massW:      make([]float64, c.Strata),
		mu:         m.Targets(d),
		seedQ:      make([]float64, c.Strata*(stratSeedN+1)),
		perStratum: make([]stats.Welford, c.Strata),
	}
	warp := 1 / (c.Tilt * c.Tilt)
	for s := 0; s <= c.Strata; s++ {
		e.beta[s] = math.Pow(float64(s)/float64(c.Strata), warp)
	}
	// March the quantile nodes in CDF order, each seeded by its
	// predecessor, so the table build costs a couple of Newton steps per
	// node instead of a cold bracket each.
	hint := 0.0
	for s := 0; s < c.Strata; s++ {
		e.mass[s] = e.beta[s+1] - e.beta[s]
		e.massW[s] = float64(c.Strata) * e.mass[s]
		e.logW[s] = math.Log(e.massW[s])
		for j := 0; j <= stratSeedN; j++ {
			if s > 0 && j == 0 {
				// Shared boundary: the previous stratum's top node sits at
				// the same CDF value; recomputing it from a different hint
				// would land within Newton tolerance but not identically.
				e.seedQ[s*(stratSeedN+1)] = e.seedQ[s*(stratSeedN+1)-1]
				continue
			}
			uu := e.beta[s] + e.mass[s]*float64(j)/stratSeedN
			if uu >= 1 {
				// The top node backs off the open endpoint (quantile +Inf);
				// per-trial draws land above it and Newton walks the rest.
				uu = 1 - 1e-12
			}
			q := stats.ChiSquareQuantile(e.k, uu, hint)
			e.seedQ[s*(stratSeedN+1)+j] = q
			hint = q
		}
	}
	if e.neyman {
		e.alloc = newAllocator(c.Strata)
	}
	return e
}

func (e *stratified) Name() string { return Stratified }

// PlanBlock assigns trials [lo, hi) to radial strata, blending two
// deterministic budgets:
//
// Three quarters follow Neyman shares: per-stratum sd of the weighted
// indicator w·y (proposal strata are equiprobable, so sd alone is the
// optimal share), floored by the flat-profile prior sqrt(p̂·S·mass_s).
// The prior is the exact Neyman share under the empirically observed
// structure of deep-low-yield scenarios — yield contribution spread
// roughly evenly across radial slices, so with w·y ∈ {0, S·mass_s} and
// conditional rate g_s ≈ p̂/(S·mass_s), sd_s ≈ sqrt(p̂·S·mass_s) — and
// it keeps strata whose own successes have not arrived yet funded at
// the level the structure predicts, where a pure empirical rule
// starves them and converges, confidently, to an estimate missing
// their yield mass.
//
// One quarter goes to strata that have never produced a success,
// proportional to mass_s: the missing-mass guard needs max_s mass_s/n_s
// driven down before stopping is allowed, and funding proportional to
// mass_s minimises the trials that takes. Once every stratum has seen
// a success the whole block is Neyman.
func (e *stratified) PlanBlock(lo, hi int) {
	if !e.neyman {
		return
	}
	p, _ := e.estimate()
	neyman := make([]float64, e.strata)
	tail := make([]float64, e.strata)
	neymanTotal, tailTotal := 0.0, 0.0
	for s := range neyman {
		w := &e.perStratum[s]
		sd := 0.0
		if w.N() >= 2 {
			sd = math.Sqrt(w.Variance())
		}
		prior := math.Sqrt(math.Max(p, 1e-300) * e.massW[s])
		neyman[s] = math.Max(sd, prior)
		neymanTotal += neyman[s]
		if w.Mean() == 0 {
			tail[s] = e.mass[s]
			tailTotal += tail[s]
		}
	}
	shares := make([]float64, e.strata)
	for s := range shares {
		shares[s] = 0.75 * neyman[s] / neymanTotal
		if tailTotal > 0 {
			shares[s] += 0.25 * tail[s] / tailTotal
		}
	}
	e.alloc.planBlock(lo, hi, shares)
}

// stratumOf returns trial i's stratum; callable concurrently.
func (e *stratified) stratumOf(i int) int {
	if !e.neyman {
		return i % e.strata
	}
	return e.alloc.stratumOf(i)
}

func (e *stratified) SampleInto(r *runner.TrialRNG, i int, buf []float64) float64 {
	s := e.stratumOf(i)
	// Squared differential radius: inverse-CDF draw from the target
	// chi-square law conditioned on stratum s's slice. Clamp uu off the
	// endpoints so the quantile stays finite.
	v := r.Float64()
	uu := e.beta[s] + v*e.mass[s]
	if uu <= 0 {
		uu = math.SmallestNonzeroFloat64
	} else if uu >= 1 {
		uu = 1 - 1e-16
	}
	// Seed the exact quantile from the stratum's node table.
	t := v * stratSeedN
	j := int(t)
	if j >= stratSeedN {
		j = stratSeedN - 1
	}
	row := e.seedQ[s*(stratSeedN+1)+j:]
	seed := row[0] + (t-float64(j))*(row[1]-row[0])
	u := stats.ChiSquareQuantile(e.k, uu, seed)

	n := e.d.N
	mean := 0.0
	for q := 0; q < n; q++ {
		buf[q] = r.NormFloat64()
		mean += buf[q]
	}
	mean /= float64(n)
	norm2 := 0.0
	for q := 0; q < n; q++ {
		zp := buf[q] - mean
		norm2 += zp * zp
		buf[q] = zp
	}
	// Rescale the differential part to the stratified radius. The
	// Gaussian draw only supplies the direction (uniform on the zero-sum
	// sphere); its own radius is discarded for the exact u.
	scale := 0.0
	if norm2 > 0 {
		scale = math.Sqrt(u / norm2)
	}
	sigma := e.m.Sigma
	for q := 0; q < n; q++ {
		buf[q] = e.mu[q] + sigma*(mean+scale*buf[q])
	}
	return e.logW[s]
}

func (e *stratified) Observe(i int, ok bool, logw float64) {
	e.trials++
	wy := 0.0
	if ok {
		e.successes++
		wy = math.Exp(logw)
	}
	e.perStratum[e.stratumOf(i)].Add(wy)
}

// ess returns the effective success count: per stratum,
// (Σ w·y)²/Σ (w·y)² is the number of equally weighted successes that
// would carry the same estimator mass — with the piecewise-constant
// weight it is exactly the stratum's success count — and the
// per-stratum counts are summed. Summing per stratum matters: the
// stratified recombination is immune to weight spread *across* strata
// (each stratum's mean enters with fixed coefficient 1/S), so a global
// ratio — which charges for exactly that spread — would understate the
// information held and block stopping indefinitely under Neyman
// allocation.
func (e *stratified) ess() float64 {
	total := 0.0
	for s := range e.perStratum {
		w := &e.perStratum[s]
		n := float64(w.N())
		if n == 0 || w.Mean() == 0 {
			continue
		}
		sum := n * w.Mean()
		sum2 := (n-1)*w.Variance() + n*w.Mean()*w.Mean()
		total += sum * sum / sum2
	}
	return total
}

// estimate returns the recombined point estimate and its standard
// error; se is +Inf while any stratum is still unresolved (fewer than
// two trials) or no success has been seen anywhere.
func (e *stratified) estimate() (p, se float64) {
	invS := 1 / float64(e.strata)
	varSum := 0.0
	for s := range e.perStratum {
		w := &e.perStratum[s]
		p += invS * w.Mean()
		if w.N() < 2 {
			varSum = math.Inf(1)
			continue
		}
		varSum += invS * invS * w.Variance() / float64(w.N())
	}
	if e.successes == 0 {
		return p, math.Inf(1)
	}
	return p, math.Sqrt(varSum)
}

// missingMass bounds the yield contribution that zero-success strata
// could collectively still be hiding. Under any configuration of hidden
// conditional success probabilities g_s with Σ n_s·g_s ≥ 3, the chance
// that every such stratum shows zero successes is at most e⁻³ < 5%; so
// at 95% confidence Σ n_s·g_s ≤ 3, and the hidden yield Σ mass_s·g_s
// is maximised by concentrating that budget where the per-trial mass
// at risk mass_s/n_s is largest. The bound is the max, not a
// per-stratum sum — a union of individual rule-of-three bounds over
// many strata is far too conservative and makes the tail unaffordable
// to retire. mass_s is exact (slice boundaries are defined in CDF
// space), so the bound is honest for every slice including the open
// top one.
func (e *stratified) missingMass() float64 {
	worst := 0.0
	for s := range e.perStratum {
		w := &e.perStratum[s]
		if w.Mean() > 0 {
			continue
		}
		if w.N() == 0 {
			return math.Inf(1)
		}
		worst = math.Max(worst, e.mass[s]/float64(w.N()))
	}
	return 3 * worst
}

func (e *stratified) HalfWidth(z float64) float64 {
	if e.ess() < e.minESS {
		return math.Inf(1)
	}
	_, se := e.estimate()
	// The variance-based interval is honest only once the strata that
	// have shown nothing could not plausibly be hiding a material slice
	// of the yield; until then the estimate may be tight around a biased
	// value, and stopping must wait for the planner's tail budget to
	// explore those strata down. Tie the tolerated bias to the interval
	// itself — at most half the reported half-width — so the guard
	// scales with however much precision the caller asked for.
	if e.missingMass() > 0.5*z*se {
		return math.Inf(1)
	}
	return z * se
}

func (e *stratified) Snapshot(z float64) Estimate {
	p, se := e.estimate()
	lo, hi := 0.0, 1.0
	if !math.IsInf(se, 1) {
		lo, hi = p-z*se, p+z*se
	}
	return Estimate{
		Estimator: Stratified,
		Trials:    e.trials,
		Successes: e.successes,
		Yield:     p,
		ESS:       e.ess(),
		CILo:      math.Max(0, lo),
		CIHi:      math.Min(1, hi),
	}
}
