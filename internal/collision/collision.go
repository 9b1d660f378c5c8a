// Package collision implements the seven fixed-frequency transmon
// frequency-collision criteria of the paper's Table I. Violating any
// criterion is expected to push two-qubit CR gate error above ~1%,
// so a device is "collision-free" only when all seven return false for
// every coupling and every control/target triple.
//
// The criteria, with Qi the CR control and Qj/Qk its targets:
//
//	Type 1: fi = fj            +- 0.017 GHz   nearest neighbours Qi, Qj
//	Type 2: fi + a/2 = fj      +- 0.004 GHz   control Qi, target Qj
//	Type 3: fi = fj + a        +- 0.030 GHz   nearest neighbours Qi, Qj
//	Type 4: fj < fi + a  or  fi < fj          control Qi, target Qj
//	Type 5: fj = fk            +- 0.017 GHz   Qi controls Qj and/or Qk
//	Type 6: fj = fk + a (or fj + a = fk) +- 0.025 GHz  same triples
//	Type 7: 2fi + a = fj + fk  +- 0.017 GHz   same triples
//
// where a is the transmon anharmonicity (~ -0.330 GHz).
package collision

import (
	"fmt"
	"math"

	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// Params holds the anharmonicity and the Table I thresholds, in GHz.
// All fields are positive half-widths except Anharmonicity, which is the
// signed alpha.
type Params struct {
	Anharmonicity float64 // alpha, negative for transmons
	T1            float64 // Type 1 half-width
	T2            float64 // Type 2 half-width
	T3            float64 // Type 3 half-width
	T5            float64 // Type 5 half-width
	T6            float64 // Type 6 half-width
	T7            float64 // Type 7 half-width
}

// DefaultParams reproduces Table I: alpha = -0.330 GHz and the published
// thresholds.
func DefaultParams() Params {
	return Params{
		Anharmonicity: -0.330,
		T1:            0.017,
		T2:            0.004,
		T3:            0.030,
		T5:            0.017,
		T6:            0.025,
		T7:            0.017,
	}
}

// NonFinite is the pseudo-criterion reported when a frequency is NaN or
// infinite: such assignments are rejected outright (never collision-free)
// instead of silently falling through the Table I comparisons, all of
// which evaluate false on NaN.
const NonFinite = -1

// Violation records one triggered criterion.
type Violation struct {
	Type    int // 1..7, or NonFinite
	Control int // control qubit (or first neighbour for types 1/3)
	Target  int // target qubit (or second neighbour)
	Target2 int // second target for types 5-7, else -1
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	if v.Type == NonFinite {
		return fmt.Sprintf("non-finite frequency: q%d or q%d", v.Control, v.Target)
	}
	if v.Target2 >= 0 {
		return fmt.Sprintf("type %d collision: control q%d targets q%d,q%d",
			v.Type, v.Control, v.Target, v.Target2)
	}
	return fmt.Sprintf("type %d collision: q%d-q%d", v.Type, v.Control, v.Target)
}

// edgeInfo is a precompiled coupling with its control direction resolved.
type edgeInfo struct {
	control, target int
}

// Checker is a collision evaluator compiled against one device topology.
// Compiling once and reusing across Monte Carlo samples avoids rebuilding
// edge and control-pair tables in the hot loop.
type Checker struct {
	params Params
	edges  []edgeInfo
	pairs  []topo.ControlPair

	// The same criteria filed for SampleFree under the qubit whose
	// placement completes them, by the rule internal/sampling's
	// importance proposal uses: types 1-4 at max(U, V), types 5-6 at
	// max(T1, T2), type 7 at the triple's maximum. Qubit q's criteria
	// are the slices between ends[q-1] and ends[q].
	ends     []bucketEnd
	qEdges   []edgeInfo
	qTargets []topo.ControlPair // types 5-6, on the two targets
	qTriple  []topo.ControlPair // type 7
}

// bucketEnd holds one qubit's cumulative end offsets into the Checker's
// per-qubit criteria slices.
type bucketEnd struct{ edges, targets, triples int32 }

// NewChecker compiles a checker for device d under params p.
func NewChecker(d *topo.Device, p Params) *Checker {
	c := &Checker{params: p}
	for _, e := range d.G.Edges() {
		c.edges = append(c.edges, edgeInfo{
			control: d.ControlOf(e.U, e.V),
			target:  d.TargetOf(e.U, e.V),
		})
	}
	c.pairs = d.ControlPairs()

	// Count each qubit's criteria and turn the counts into bucket start
	// offsets; filling a bucket then advances its start to its end.
	c.ends = make([]bucketEnd, d.N)
	for _, e := range c.edges {
		c.ends[max(e.control, e.target)].edges++
	}
	for _, cp := range c.pairs {
		c.ends[max(cp.T1, cp.T2)].targets++
		c.ends[max(cp.Control, cp.T1, cp.T2)].triples++
	}
	var start bucketEnd
	for q, n := range c.ends {
		c.ends[q] = start
		start = bucketEnd{start.edges + n.edges, start.targets + n.targets, start.triples + n.triples}
	}
	c.qEdges = make([]edgeInfo, len(c.edges))
	c.qTargets = make([]topo.ControlPair, len(c.pairs))
	c.qTriple = make([]topo.ControlPair, len(c.pairs))
	for _, e := range c.edges {
		b := &c.ends[max(e.control, e.target)]
		c.qEdges[b.edges] = e
		b.edges++
	}
	for _, cp := range c.pairs {
		b := &c.ends[max(cp.T1, cp.T2)]
		c.qTargets[b.targets] = cp
		b.targets++
		b = &c.ends[max(cp.Control, cp.T1, cp.T2)]
		c.qTriple[b.triples] = cp
		b.triples++
	}
	return c
}

// Edges returns the number of compiled couplings.
func (c *Checker) Edges() int { return len(c.edges) }

// Pairs returns the number of compiled control/target-pair triples.
func (c *Checker) Pairs() int { return len(c.pairs) }

// Free reports whether the frequency assignment f (GHz per qubit) is
// collision-free, returning at the first violation. NaN or infinite
// frequencies are never collision-free. This is the Monte Carlo hot
// path; it allocates nothing.
func (c *Checker) Free(f []float64) bool {
	return c.FreeInto(nil, f)
}

// FreeInto is Free with an allocation-free diagnostic: when the
// assignment is not collision-free it writes the first triggered
// criterion into *v (callers reuse one Violation across trials) and
// returns false. v may be nil to skip the diagnostic.
func (c *Checker) FreeInto(v *Violation, f []float64) bool {
	p := &c.params
	for i := range c.edges {
		e := &c.edges[i]
		if t := edgeViolationType(f[e.control], f[e.target], p); t != 0 {
			if v != nil {
				*v = Violation{Type: t, Control: e.control, Target: e.target, Target2: -1}
			}
			return false
		}
	}
	for i := range c.pairs {
		cp := &c.pairs[i]
		if t := pairViolationType(f[cp.Control], f[cp.T1], f[cp.T2], p); t != 0 {
			if v != nil {
				*v = Violation{Type: t, Control: cp.Control, Target: cp.T1, Target2: cp.T2}
			}
			return false
		}
	}
	return true
}

// SampleFree draws one fabricated device and reports whether it is
// collision-free, returning at the first collision. Qubit q's frequency
// is r.Normal(mu[q], sigma), drawn in index order into f (one entry per
// device qubit); once it is placed, every criterion it completes is
// checked. The outcome is always Free's on fab.Model.SampleInto's
// frequencies from the same stream. On success f and r's position also
// match, so later draws from r are unchanged; on a collision f is only
// partly written and the rest of the trial's stream is left unread. It
// allocates nothing.
func (c *Checker) SampleFree(r *runner.TrialRNG, mu []float64, sigma float64, f []float64) bool {
	n := len(c.ends)
	if len(f) != n || len(mu) != n {
		panic(fmt.Sprintf("collision: buffer length %d, means %d != device qubits %d", len(f), len(mu), n))
	}
	// The predicates are composed here rather than reached through
	// edgeViolationType and pairViolationType, which are too large to
	// inline: those calls cost a tenth of the trial.
	p := &c.params
	var lo bucketEnd
	for q, hi := range c.ends {
		f[q] = r.Normal(mu[q], sigma)
		for _, e := range c.qEdges[lo.edges:hi.edges] {
			fi, fj := f[e.control], f[e.target]
			if !finite(fi) || !finite(fj) ||
				type1(fi, fj, p) || type2(fi, fj, p) || type3(fi, fj, p) || type4(fi, fj, p) {
				return false
			}
		}
		for _, cp := range c.qTargets[lo.targets:hi.targets] {
			fj, fk := f[cp.T1], f[cp.T2]
			if !finite(fj) || !finite(fk) || type5(fj, fk, p) || type6(fj, fk, p) {
				return false
			}
		}
		// Both targets were checked finite with the pair's types 5-6, at
		// this qubit or an earlier one.
		for _, cp := range c.qTriple[lo.triples:hi.triples] {
			fi := f[cp.Control]
			if !finite(fi) || type7(fi, f[cp.T1], f[cp.T2], p) {
				return false
			}
		}
		lo = hi
	}
	return true
}

// Violations returns every triggered criterion for assignment f.
func (c *Checker) Violations(f []float64) []Violation {
	return c.ViolationsInto(nil, f)
}

// ViolationsInto appends every triggered criterion for assignment f to
// dst and returns the extended slice. Hot loops pass dst[:0] to reuse
// the backing array across trials instead of allocating per call.
func (c *Checker) ViolationsInto(dst []Violation, f []float64) []Violation {
	p := &c.params
	for i := range c.edges {
		e := &c.edges[i]
		dst = appendEdgeViolations(dst, e.control, e.target, f[e.control], f[e.target], p)
	}
	for i := range c.pairs {
		cp := &c.pairs[i]
		dst = appendPairViolations(dst, cp, f[cp.Control], f[cp.T1], f[cp.T2], p)
	}
	return dst
}

// finite reports whether f is neither NaN nor infinite. The f-f trick
// compiles to one subtraction and compare, cheap enough for the per-edge
// hot path (NaN-NaN and Inf-Inf are NaN, which compares unequal to 0).
func finite(f float64) bool { return f-f == 0 }

// The Table I criteria, one predicate each, for finite control
// frequency fi and target frequencies fj, fk. Every evaluator composes
// these, so each formula is written once; all of them inline.

func type1(fi, fj float64, p *Params) bool { return math.Abs(fi-fj) <= p.T1 }

func type2(fi, fj float64, p *Params) bool { return math.Abs(fi+p.Anharmonicity/2-fj) <= p.T2 }

func type3(fi, fj float64, p *Params) bool {
	a := p.Anharmonicity
	return math.Abs(fi-fj-a) <= p.T3 || math.Abs(fj-fi-a) <= p.T3
}

// type4: the target must lie strictly inside the straddling regime
// (fi + a, fi); outside it the CR interaction fails.
func type4(fi, fj float64, p *Params) bool { return fj < fi+p.Anharmonicity || fi < fj }

func type5(fj, fk float64, p *Params) bool { return math.Abs(fj-fk) <= p.T5 }

func type6(fj, fk float64, p *Params) bool {
	a := p.Anharmonicity
	return math.Abs(fj-fk-a) <= p.T6 || math.Abs(fj+a-fk) <= p.T6
}

func type7(fi, fj, fk float64, p *Params) bool {
	return math.Abs(2*fi+p.Anharmonicity-fj-fk) <= p.T7
}

// edgeViolationType returns the first violated pairwise criterion
// (1, 2, 3, or 4) for control frequency fi and target frequency fj,
// NonFinite for NaN/Inf inputs, or 0.
func edgeViolationType(fi, fj float64, p *Params) int {
	switch {
	case !finite(fi) || !finite(fj):
		return NonFinite
	case type1(fi, fj, p):
		return 1
	case type2(fi, fj, p):
		return 2
	case type3(fi, fj, p):
		return 3
	case type4(fi, fj, p):
		return 4
	}
	return 0
}

// pairViolationType returns the first violated spectator criterion
// (5, 6, or 7) for control fi with targets fj, fk, NonFinite for
// NaN/Inf inputs, or 0.
func pairViolationType(fi, fj, fk float64, p *Params) int {
	switch {
	case !finite(fi) || !finite(fj) || !finite(fk):
		return NonFinite
	case type5(fj, fk, p):
		return 5
	case type6(fj, fk, p):
		return 6
	case type7(fi, fj, fk, p):
		return 7
	}
	return 0
}

func appendEdgeViolations(out []Violation, qi, qj int, fi, fj float64, p *Params) []Violation {
	if !finite(fi) || !finite(fj) {
		return append(out, Violation{Type: NonFinite, Control: qi, Target: qj, Target2: -1})
	}
	for t, hit := range [...]bool{type1(fi, fj, p), type2(fi, fj, p), type3(fi, fj, p), type4(fi, fj, p)} {
		if hit {
			out = append(out, Violation{Type: t + 1, Control: qi, Target: qj, Target2: -1})
		}
	}
	return out
}

func appendPairViolations(out []Violation, cp *topo.ControlPair, fi, fj, fk float64, p *Params) []Violation {
	if !finite(fi) || !finite(fj) || !finite(fk) {
		return append(out, Violation{Type: NonFinite, Control: cp.Control, Target: cp.T1, Target2: cp.T2})
	}
	for t, hit := range [...]bool{type5(fj, fk, p), type6(fj, fk, p), type7(fi, fj, fk, p)} {
		if hit {
			out = append(out, Violation{Type: t + 5, Control: cp.Control, Target: cp.T1, Target2: cp.T2})
		}
	}
	return out
}

// CheckPair exposes the pairwise criteria (types 1-4) for a single
// control/target frequency pair; used by tests and by the assembly stage
// when vetting candidate inter-chip links. NaN or infinite frequencies
// return NonFinite.
func CheckPair(fControl, fTarget float64, p Params) int {
	return edgeViolationType(fControl, fTarget, &p)
}

// CheckTriple exposes the spectator criteria (types 5-7) for a control
// frequency and two target frequencies. NaN or infinite frequencies
// return NonFinite.
func CheckTriple(fControl, fT1, fT2 float64, p Params) int {
	return pairViolationType(fControl, fT1, fT2, &p)
}
