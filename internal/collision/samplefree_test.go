package collision_test

import (
	"math"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/race"
	"chipletqc/internal/runner"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
)

// agree runs trials [0, n) of one campaign both ways, the fused
// early-exit SampleFree and SampleInto followed by Free, and fails on
// any outcome mismatch. On success the frequencies and the next draw
// must match as well. It returns the collision-free count.
func agree(t *testing.T, d *topo.Device, m fab.Model, p collision.Params, seed int64, n int) int {
	t.Helper()
	c := collision.NewChecker(d, p)
	mu := m.Targets(d)
	fused, full := runner.NewTrialRNG(), runner.NewTrialRNG()
	ff, fs := make([]float64, d.N), make([]float64, d.N)
	free := 0
	for i := 0; i < n; i++ {
		rf := fused.At(seed, i)
		ok := c.SampleFree(rf, mu, m.Sigma, ff)
		rs := full.At(seed, i)
		m.SampleInto(rs, d, fs)
		if want := c.Free(fs); ok != want {
			t.Fatalf("%s sigma %g trial %d: SampleFree %t, SampleInto+Free %t", d.Name, m.Sigma, i, ok, want)
		}
		if !ok {
			continue
		}
		free++
		for q := range ff {
			if math.Float64bits(ff[q]) != math.Float64bits(fs[q]) {
				t.Fatalf("%s sigma %g trial %d qubit %d: frequency %v, want %v", d.Name, m.Sigma, i, q, ff[q], fs[q])
			}
		}
		if a, b := rf.Float64(), rs.Float64(); a != b {
			t.Fatalf("%s sigma %g trial %d: next draw %v, want %v", d.Name, m.Sigma, i, a, b)
		}
	}
	return free
}

// TestSampleFreeMatchesSampleThenFree pins the early-exit trial to the
// draw-everything-then-check trial it replaced, under every registered
// scenario's plan and thresholds, on paper devices of 10 to 300 qubits
// and a generated hex device, from ideal to as-fabricated precision.
func TestSampleFreeMatchesSampleThenFree(t *testing.T) {
	hex, err := topo.LatticeSpec{Family: topo.FamilyHex, Rows: 2, Cols: 2, ChipQubits: 12}.Build()
	if err != nil {
		t.Fatal(err)
	}
	devices := []*topo.Device{hex}
	for _, n := range []int{10, 100, 300} {
		devices = append(devices, topo.MonolithicDevice(topo.MonolithicSpec(n)))
	}
	trials := 10000
	if testing.Short() || race.Enabled {
		// The check is single-goroutine logic; -race only slows it 15x.
		trials = 1000
	}
	sigmas := []float64{0, fab.SigmaScalingGoal, fab.SigmaLaserTuned, fab.SigmaAsFabricated}
	free, total := 0, 0
	for _, scn := range scenario.All() {
		for _, d := range devices {
			for _, sigma := range sigmas {
				m := scn.Fab
				m.Sigma = sigma
				free += agree(t, d, m, scn.Params, 11, trials)
				total += trials
			}
		}
	}
	if free == 0 || free == total {
		t.Errorf("%d of %d trials collision-free: both outcomes must be exercised", free, total)
	}
}

// FuzzSampleFree checks the early-exit trial against SampleInto + Free
// over fuzzed seeds, precisions and plan steps on a 20- and a 60-qubit
// paper device.
func FuzzSampleFree(f *testing.F) {
	f.Add(int64(1), fab.SigmaLaserTuned, 0.06)
	f.Add(int64(7), fab.SigmaScalingGoal, 0.05)
	f.Add(int64(42), fab.SigmaAsFabricated, 0.07)
	f.Add(int64(99), 0.0, 0.06)
	devices := []*topo.Device{
		topo.MonolithicDevice(topo.MonolithicSpec(20)),
		topo.MonolithicDevice(topo.MonolithicSpec(60)),
	}
	f.Fuzz(func(t *testing.T, seed int64, sigma, step float64) {
		if !(sigma >= 0 && sigma <= 1) || !(step > 0 && step <= 0.5) {
			t.Skip("precision or step outside the physical regime")
		}
		m := fab.Model{Plan: topo.DefaultFreqPlan, Sigma: sigma}
		m.Plan.Step = step
		for _, d := range devices {
			agree(t, d, m, collision.DefaultParams(), seed, 200)
		}
	})
}
