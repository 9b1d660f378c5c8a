package fab

import (
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/runner"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

func TestModelValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	bad := []Model{
		{Plan: topo.DefaultFreqPlan, Sigma: -1},
		{Plan: topo.FreqPlan{Base: 5, Step: 0}, Sigma: 0.01},
		{Plan: topo.FreqPlan{Base: 0, Step: 0.06}, Sigma: 0.01},
		{Plan: topo.DefaultFreqPlan, Sigma: math.NaN()},
		{Plan: topo.DefaultFreqPlan, Sigma: math.Inf(1)},
		{Plan: topo.FreqPlan{Base: 5, Step: math.NaN()}, Sigma: 0.01},
		{Plan: topo.FreqPlan{Base: 5, Step: math.Inf(1)}, Sigma: 0.01},
		{Plan: topo.FreqPlan{Base: math.NaN(), Step: 0.06}, Sigma: 0.01},
		{Plan: topo.FreqPlan{Base: math.Inf(1), Step: 0.06}, Sigma: 0.01},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %+v should be invalid", m)
		}
	}
}

func TestSampleStatistics(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	m := DefaultModel()
	r := rand.New(rand.NewSource(11))
	// Pool deviations from target across many samples per class.
	devs := map[topo.Class][]float64{}
	for trial := 0; trial < 2000; trial++ {
		f := m.Sample(r, d)
		for q := 0; q < d.N; q++ {
			devs[d.Class[q]] = append(devs[d.Class[q]], f[q]-m.Plan.Target(d.Class[q]))
		}
	}
	for cl, xs := range devs {
		if mean := stats.Mean(xs); math.Abs(mean) > 5e-4 {
			t.Errorf("class %v deviation mean = %v, want ~0", cl, mean)
		}
		if sd := stats.StdDev(xs); math.Abs(sd-SigmaLaserTuned) > 1e-3 {
			t.Errorf("class %v deviation sd = %v, want ~%v", cl, sd, SigmaLaserTuned)
		}
	}
}

func TestSampleZeroSigmaIsIdeal(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	m := Model{Plan: topo.DefaultFreqPlan, Sigma: 0}
	f := m.Sample(rand.New(rand.NewSource(1)), d)
	for q := 0; q < d.N; q++ {
		if f[q] != m.Plan.Target(d.Class[q]) {
			t.Errorf("qubit %d freq %v != target %v", q, f[q], m.Plan.Target(d.Class[q]))
		}
	}
}

func TestSampleIntoPanicsOnBadLength(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong buffer length")
		}
	}()
	DefaultModel().SampleInto(runner.NewTrialRNG(), d, make([]float64, 3))
}

func TestSampleIntoMatchesSample(t *testing.T) {
	// SampleInto on a TrialRNG and Sample on the *rand.Rand of the same
	// (seed, trial) stream draw identical frequencies, zero sigma included.
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	rng := runner.NewTrialRNG()
	f := make([]float64, d.N)
	for _, sigma := range []float64{0, SigmaScalingGoal, SigmaAsFabricated} {
		m := Model{Plan: topo.DefaultFreqPlan, Sigma: sigma}
		for i := 0; i < 20; i++ {
			m.SampleInto(rng.At(42, i), d, f)
			want := m.Sample(runner.Rand(42, i), d)
			for q := range f {
				if f[q] != want[q] {
					t.Fatalf("sigma %g trial %d qubit %d: SampleInto %v != Sample %v", sigma, i, q, f[q], want[q])
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	m := DefaultModel()
	a := m.Sample(rand.New(rand.NewSource(7)), d)
	b := m.Sample(rand.New(rand.NewSource(7)), d)
	for q := range a {
		if a[q] != b[q] {
			t.Fatal("same seed must reproduce identical samples")
		}
	}
}
