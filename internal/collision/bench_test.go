package collision

import (
	"testing"

	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// benchDraws returns the 100-qubit paper device at laser-tuned
// precision, its plan targets and 512 fabricated frequency assignments.
func benchDraws() (*topo.Device, fab.Model, []float64, [][]float64) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(100))
	m := fab.DefaultModel()
	rng := runner.NewTrialRNG()
	fs := make([][]float64, 512)
	for i := range fs {
		fs[i] = make([]float64, d.N)
		m.SampleInto(rng.At(1, i), d, fs[i])
	}
	return d, m, m.Targets(d), fs
}

// BenchmarkNewChecker compiles the checker for the 500-qubit monolithic
// device, as every yield simulation does once for its device.
func BenchmarkNewChecker(b *testing.B) {
	d := topo.MonolithicDevice(topo.MonolithicSpec(500))
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewChecker(d, p)
	}
}

// BenchmarkFree checks whole fabricated assignments, most of which
// collide, against every criterion in compiled order.
func BenchmarkFree(b *testing.B) {
	d, _, _, fs := benchDraws()
	c := NewChecker(d, DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Free(fs[i%len(fs)])
	}
}

// BenchmarkSampleFree draws and checks the same trials qubit by qubit,
// stopping at the first collision.
func BenchmarkSampleFree(b *testing.B) {
	d, m, mu, _ := benchDraws()
	c := NewChecker(d, DefaultParams())
	rng := runner.NewTrialRNG()
	f := make([]float64, d.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SampleFree(rng.At(1, i%512), mu, m.Sigma, f)
	}
}
