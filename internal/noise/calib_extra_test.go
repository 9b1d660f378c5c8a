package noise

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

// TestPenaltyPeaksAreLocalMaxima: each resonance point is a strict local
// maximum of the penalty landscape.
func TestPenaltyPeaksAreLocalMaxima(t *testing.T) {
	cfg := DefaultCalibConfig()
	for _, peak := range []float64{0, 0.165, 0.330} {
		at := cfg.PenaltyFactor(peak)
		for _, off := range []float64{0.03, -0.03} {
			x := peak + off
			if x < 0 {
				continue
			}
			if cfg.PenaltyFactor(x) >= at {
				t.Errorf("penalty at %v (%v) not below peak %v (%v)",
					x, cfg.PenaltyFactor(x), peak, at)
			}
		}
	}
}

// TestPenaltyBoundedProperty: penalty is always within [1, 1 + sum of
// amplitudes].
func TestPenaltyBoundedProperty(t *testing.T) {
	cfg := DefaultCalibConfig()
	upper := 1 + cfg.NullAmp + cfg.HalfAmp + cfg.AnharmAmp
	f := func(dRaw int16) bool {
		d := float64(dRaw) / 1000 // -32.7..32.7 GHz, wildly out of range too
		p := cfg.PenaltyFactor(d)
		return p >= 1 && p <= upper
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSampleEdgeErrorSizeMonotone: larger devices draw from a higher-
// median error distribution (the Fig. 3b coupling).
func TestSampleEdgeErrorSizeMonotone(t *testing.T) {
	cfg := DefaultCalibConfig()
	r := rand.New(rand.NewSource(8))
	sample := func(n int) float64 {
		xs := make([]float64, 4000)
		for i := range xs {
			xs[i] = cfg.SampleEdgeError(r, 0.08, n)
		}
		return stats.Median(xs)
	}
	m27, m127, m500 := sample(27), sample(127), sample(500)
	if !(m27 < m127 && m127 < m500) {
		t.Errorf("medians should grow with size: %v %v %v", m27, m127, m500)
	}
}

// TestCalibrationRunDeterministic: same seed, same dataset.
func TestCalibrationRunDeterministic(t *testing.T) {
	a := testCalibration(5)
	b := testCalibration(5)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic calibration")
		}
	}
}

// TestCalibrationMatchesPerObservationSampling: CalibrationRun and
// SizeSeries compute each coupling's lognormal parameters once per edge
// and the size terms once per device, yet must draw bit for bit what a
// per-observation SampleEdgeError loop draws from the same stream.
func TestCalibrationMatchesPerObservationSampling(t *testing.T) {
	noSize := DefaultCalibConfig()
	noSize.SizeRef = 0
	for _, cfg := range []CalibConfig{DefaultCalibConfig(), noSize} {
		for _, spec := range []topo.ChipSpec{WashingtonSpec(), {DenseRows: 2, Width: 8}} {
			for _, seed := range []int64{1, 7} {
				const cycles = 15
				got := CalibrationRun(spec, FreqSpreadFig7, cycles, seed, cfg)
				d := topo.MonolithicDevice(spec)
				r := runner.Rand(seed, 0)
				f := fab.Model{Plan: topo.DefaultFreqPlan, Sigma: FreqSpreadFig7}.Sample(r, d)
				edges := d.G.Edges()
				if len(got) != len(edges) {
					t.Fatalf("%+v seed %d: %d points, want %d", spec, seed, len(got), len(edges))
				}
				for i, e := range edges {
					det := math.Abs(f[e.U] - f[e.V])
					var sum float64
					for c := 0; c < cycles; c++ {
						sum += cfg.SampleEdgeError(r, det, d.N)
					}
					want := CalibPoint{Detuning: det, Infidelity: sum / cycles}
					if math.Float64bits(got[i].Detuning) != math.Float64bits(want.Detuning) ||
						math.Float64bits(got[i].Infidelity) != math.Float64bits(want.Infidelity) {
						t.Fatalf("%+v seed %d edge %v: got %+v, want %+v", spec, seed, e, got[i], want)
					}
				}
			}
		}

		sizes := []int{27, 65}
		const seed, cycles = 3, 4
		got := SizeSeries(sizes, cycles, seed, cfg)
		for i, n := range sizes {
			d := topo.MonolithicDevice(topo.MonolithicSpec(n))
			r := runner.Rand(seed, i)
			model := fab.Model{Plan: topo.DefaultFreqPlan, Sigma: FreqSpreadFig7 * (0.7 + 0.3*float64(n)/127.0)}
			var obs []float64
			for c := 0; c < cycles; c++ {
				f := model.Sample(r, d)
				for _, e := range d.G.Edges() {
					obs = append(obs, cfg.SampleEdgeError(r, math.Abs(f[e.U]-f[e.V]), d.N))
				}
			}
			if want := stats.Summarize(obs); got[i] != want {
				t.Fatalf("SizeSeries %dq: got %+v, want %+v", n, got[i], want)
			}
		}
	}
}

// TestLinkModelClamps: pathological lognormal draws stay physical.
func TestLinkModelClamps(t *testing.T) {
	l := DefaultLinkModel()
	l.Sigma = 5 // enormous spread forces clamping
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		e := l.Sample(r)
		if e < l.Floor || e > l.Ceil {
			t.Fatalf("sample %v escaped [%v, %v]", e, l.Floor, l.Ceil)
		}
	}
}

// TestDetuningModelBinWidthDefault: non-positive widths fall back to the
// paper's 0.1 GHz.
func TestDetuningModelBinWidthDefault(t *testing.T) {
	pts := []CalibPoint{{Detuning: 0.05, Infidelity: 0.01}}
	m := NewDetuningModel(pts, -1)
	r := runner.NewTrialRNG().At(10, 0)
	if e := m.Sample(r, 0.05); math.Abs(e-0.01) > 1e-12 {
		t.Errorf("sample = %v", e)
	}
}
