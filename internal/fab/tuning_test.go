package fab

import (
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/stats"
	"chipletqc/internal/topo"
)

func TestTunedModelValidate(t *testing.T) {
	if err := DefaultTunedModel().Validate(); err != nil {
		t.Errorf("default tuned model invalid: %v", err)
	}
	bad := []TunedModel{
		{Plan: topo.DefaultFreqPlan, SigmaRaw: -1, SigmaResidual: 0.01},
		{Plan: topo.DefaultFreqPlan, SigmaRaw: 0.01, SigmaResidual: 0.02},
		{Plan: topo.DefaultFreqPlan, SigmaRaw: 0.1, SigmaResidual: 0.01, Threshold: -1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %+v should be invalid", m)
		}
	}
}

func TestTunedModelTunesEverythingAtZeroThreshold(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	m := DefaultTunedModel()
	r := rand.New(rand.NewSource(1))
	f := make([]float64, d.N)
	st := m.SampleInto(r, d, f)
	if st.Tuned != d.N {
		t.Errorf("tuned %d of %d, want all (threshold 0)", st.Tuned, d.N)
	}
	if st.Fraction() != 1 {
		t.Errorf("fraction = %v", st.Fraction())
	}
}

func TestTunedModelResidualSpread(t *testing.T) {
	// With threshold 0, realised deviations follow the residual sigma.
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8})
	m := DefaultTunedModel()
	r := rand.New(rand.NewSource(2))
	var devs []float64
	f := make([]float64, d.N)
	for i := 0; i < 2000; i++ {
		m.SampleInto(r, d, f)
		for q := 0; q < d.N; q++ {
			devs = append(devs, f[q]-m.Plan.Target(d.Class[q]))
		}
	}
	if sd := stats.StdDev(devs); math.Abs(sd-SigmaLaserTuned) > 1e-3 {
		t.Errorf("tuned spread = %v, want ~%v", sd, SigmaLaserTuned)
	}
}

func TestTunedModelSelectiveThreshold(t *testing.T) {
	// A generous threshold tunes only outliers: the tuned fraction
	// matches the two-sided normal tail probability.
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 4, Width: 12})
	m := DefaultTunedModel()
	m.Threshold = m.SigmaRaw // ~31.7% of qubits lie beyond 1 sigma
	r := rand.New(rand.NewSource(3))
	f := make([]float64, d.N)
	total, tuned := 0, 0
	for i := 0; i < 500; i++ {
		st := m.SampleInto(r, d, f)
		total += st.Qubits
		tuned += st.Tuned
	}
	frac := float64(tuned) / float64(total)
	if math.Abs(frac-0.317) > 0.02 {
		t.Errorf("tuned fraction = %v, want ~0.317", frac)
	}
}

func TestLaserTuningRestoresYield(t *testing.T) {
	// The headline effect of laser annealing: raw-precision devices
	// beyond ~20 qubits are hopeless; tuning restores order-of-magnitude
	// yield (Zhang et al. report >= 15x on sub-100q devices).
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 2, Width: 8}) // 20 qubits
	checker := collision.NewChecker(d, collision.DefaultParams())
	raw := Model{Plan: topo.DefaultFreqPlan, Sigma: SigmaAsFabricated}
	tuned := DefaultTunedModel()

	const batch = 3000
	f := make([]float64, d.N)
	rawFree, tunedFree := 0, 0
	r := rand.New(rand.NewSource(4))
	for i := 0; i < batch; i++ {
		copy(f, raw.Sample(r, d))
		if checker.Free(f) {
			rawFree++
		}
		tuned.SampleInto(r, d, f)
		if checker.Free(f) {
			tunedFree++
		}
	}
	if rawFree == 0 {
		// Guard against division; the improvement is effectively infinite.
		if tunedFree < batch/3 {
			t.Errorf("tuned yield %d/%d too low", tunedFree, batch)
		}
		return
	}
	improvement := float64(tunedFree) / float64(rawFree)
	if improvement < 15 {
		t.Errorf("tuning improvement = %.1fx, want >= 15x", improvement)
	}
}

func TestTunedSampleIntoPanicsOnBadLength(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	DefaultTunedModel().SampleInto(rand.New(rand.NewSource(1)), d, make([]float64, 2))
}

func TestTunedSampleAllocates(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 1, Width: 8})
	f := DefaultTunedModel().Sample(rand.New(rand.NewSource(5)), d)
	if len(f) != d.N {
		t.Errorf("sample length %d", len(f))
	}
}
