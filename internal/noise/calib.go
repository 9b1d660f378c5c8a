// Package noise models two-qubit gate infidelity for on-chip couplings
// and inter-chip links (paper Section VI).
//
// The paper builds its on-chip model from IBM Washington backend
// calibration data: per-pair CX infidelity averaged over 15 calibration
// cycles, binned by qubit-qubit detuning at 0.1 GHz intervals, then
// sampled per coupling. We do not have the proprietary calibration dump,
// so this package synthesises a statistically equivalent dataset: a
// lognormal base error with collision-proximity penalties (error rises
// when a pair's detuning approaches a near-null, half-anharmonicity, or
// anharmonicity resonance), calibrated so the pooled synthetic
// "Washington" data reproduces the paper's published summary statistics
// (median ~0.012, mean ~0.018, Fig. 7). Downstream code consumes only
// the binned empirical distribution, exactly as the paper does.
package noise

import (
	"math"
	"math/rand"

	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// CalibConfig parameterises the synthetic calibration-data generator.
type CalibConfig struct {
	// BaseMedian is the median CX infidelity of a healthy coupling far
	// from any collision resonance.
	BaseMedian float64
	// BaseSigma is the lognormal shape parameter of the healthy error
	// distribution (captures cycle-to-cycle and pair-to-pair noise).
	BaseSigma float64
	// Anharmonicity is the transmon alpha in GHz (negative).
	Anharmonicity float64
	// Collision-proximity penalties: multiplicative error amplification
	// peaking when the detuning hits a resonance. Amp is the peak extra
	// factor; Width the Gaussian width in GHz.
	NullAmp, NullWidth     float64 // detuning ~ 0 (types 1/5)
	HalfAmp, HalfWidth     float64 // detuning ~ |alpha|/2 (type 2)
	AnharmAmp, AnharmWidth float64 // detuning ~ |alpha| (types 3/6)
	// SizeRef and SizeMedianExp/SizeSigmaExp couple device size to error:
	// larger devices exhibit more variation (paper Fig. 3b). The median
	// scales by (n/SizeRef)^SizeMedianExp and the lognormal sigma by
	// (n/SizeRef)^SizeSigmaExp.
	SizeRef       int
	SizeMedianExp float64
	SizeSigmaExp  float64
	// Floor and Ceil clamp sampled infidelities to a physical range.
	Floor, Ceil float64
}

// DefaultCalibConfig returns the configuration calibrated against the
// paper's Fig. 7 statistics (median 0.012, mean 0.018 on a Washington-
// class device).
func DefaultCalibConfig() CalibConfig {
	return CalibConfig{
		BaseMedian:    0.0049,
		BaseSigma:     0.52,
		Anharmonicity: -0.330,
		NullAmp:       6.0,
		NullWidth:     0.022,
		HalfAmp:       2.0,
		HalfWidth:     0.014,
		AnharmAmp:     3.0,
		AnharmWidth:   0.028,
		SizeRef:       27,
		SizeMedianExp: 0.22,
		SizeSigmaExp:  0.18,
		Floor:         5e-4,
		Ceil:          0.9,
	}
}

// PenaltyFactor returns the multiplicative error amplification for a
// coupling with the given absolute detuning (GHz): 1 far from all
// resonances, rising as the detuning approaches 0, |alpha|/2, or |alpha|.
func (c CalibConfig) PenaltyFactor(detuning float64) float64 {
	d := math.Abs(detuning)
	a := math.Abs(c.Anharmonicity)
	p := 1.0
	p += c.NullAmp * gauss(d, 0, c.NullWidth)
	p += c.HalfAmp * gauss(d, a/2, c.HalfWidth)
	p += c.AnharmAmp * gauss(d, a, c.AnharmWidth)
	return p
}

func gauss(x, mu, w float64) float64 {
	if w <= 0 {
		return 0
	}
	z := (x - mu) / w
	return math.Exp(-0.5 * z * z)
}

// sizeTerms returns the device-size terms of the error model on an
// n-qubit device: the healthy median and the lognormal sigma. The
// median scales by (n/SizeRef)^SizeMedianExp and sigma by
// (n/SizeRef)^SizeSigmaExp.
func (c CalibConfig) sizeTerms(n int) (median, sigma float64) {
	if n <= 0 || c.SizeRef <= 0 {
		return c.BaseMedian, c.BaseSigma
	}
	x := float64(n) / float64(c.SizeRef)
	return c.BaseMedian * math.Pow(x, c.SizeMedianExp), c.BaseSigma * math.Pow(x, c.SizeSigmaExp)
}

// edgeMu returns the lognormal location of a coupling's error: the log
// of the device median amplified by the coupling's resonance penalty.
func (c CalibConfig) edgeMu(median, detuning float64) float64 {
	return math.Log(median * c.PenaltyFactor(detuning))
}

// draw samples one observation from the lognormal (mu, sigma), clamped
// to [Floor, Ceil].
func (c CalibConfig) draw(r *rand.Rand, mu, sigma float64) float64 {
	return stats.Clamp(stats.LogNormal(r, mu, sigma), c.Floor, c.Ceil)
}

// SampleEdgeError draws one CX infidelity observation for a coupling with
// the given detuning on an n-qubit device.
func (c CalibConfig) SampleEdgeError(r *rand.Rand, detuning float64, n int) float64 {
	median, sigma := c.sizeTerms(n)
	return c.draw(r, c.edgeMu(median, detuning), sigma)
}

// CalibPoint is one averaged calibration observation: a coupled pair's
// detuning and its CX infidelity averaged over the calibration cycles.
type CalibPoint struct {
	Detuning   float64
	Infidelity float64
}

// CalibrationRun mirrors the paper's data-gathering procedure: fabricate
// a synthetic device of the given spec (frequency spread sigmaF), then
// observe each coupling's CX infidelity over `cycles` calibration cycles and
// average. The returned points are the Fig. 7 scatter.
//
// Since the v1 API revision the draws come from the runner's O(1)-seeded
// SplitMix64 trial streams instead of stdlib rand.NewSource — a one-time
// change of the synthetic dataset (statistically equivalent; the golden
// figures were regenerated alongside).
func CalibrationRun(spec topo.ChipSpec, sigmaF float64, cycles int, seed int64, cfg CalibConfig) []CalibPoint {
	d := topo.MonolithicDevice(spec)
	r := runner.Rand(seed, 0)
	model := fab.Model{Plan: topo.DefaultFreqPlan, Sigma: sigmaF}
	f := model.Sample(r, d)
	edges := d.G.Edges()
	out := make([]CalibPoint, 0, len(edges))
	// Each coupling's distribution is fixed across the cycles, so its
	// lognormal parameters are computed once, not once per observation.
	median, sigma := cfg.sizeTerms(d.N)
	for _, e := range edges {
		det := math.Abs(f[e.U] - f[e.V])
		mu := cfg.edgeMu(median, det)
		var sum float64
		for c := 0; c < cycles; c++ {
			sum += cfg.draw(r, mu, sigma)
		}
		out = append(out, CalibPoint{Detuning: det, Infidelity: sum / float64(cycles)})
	}
	return out
}

// WashingtonSpec is the Washington-class synthetic device used to build
// the default detuning model: the closest heavy-hex family member to the
// 127-qubit Eagle processor.
func WashingtonSpec() topo.ChipSpec { return topo.MonolithicSpec(127) }

// FreqSpreadFig7 is the fabrication-induced frequency spread (GHz) that
// the paper cites for deployed devices and that inspired its 0.1 GHz
// detuning bin width.
const FreqSpreadFig7 = 0.1

// SizeSeries generates Fig. 3(b): pooled CX infidelity observations for
// devices of different sizes over `cycles` calibration cycles, returning
// a box-plot summary per size. Device frequency spread grows mildly with
// size (newer, larger chips show more variation in the field data).
func SizeSeries(sizes []int, cycles int, seed int64, cfg CalibConfig) []stats.Summary {
	out := make([]stats.Summary, 0, len(sizes))
	for i, n := range sizes {
		spec := topo.MonolithicSpec(n)
		d := topo.MonolithicDevice(spec)
		r := runner.Rand(seed, i)
		sigma := FreqSpreadFig7 * (0.7 + 0.3*float64(n)/127.0)
		model := fab.Model{Plan: topo.DefaultFreqPlan, Sigma: sigma}
		median, errSigma := cfg.sizeTerms(d.N)
		edges := d.G.Edges()
		obs := make([]float64, 0, cycles*len(edges))
		for c := 0; c < cycles; c++ {
			f := model.Sample(r, d)
			for _, e := range edges {
				det := math.Abs(f[e.U] - f[e.V])
				obs = append(obs, cfg.draw(r, cfg.edgeMu(median, det), errSigma))
			}
		}
		out = append(out, stats.Summarize(obs))
	}
	return out
}
