package sampling

import (
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// The micro-benchmarks below measure the estimator hot paths in
// isolation, one level below the end-to-end yield.Simulate records in
// BENCH_yield.json, so a regression in a special-function kernel or a
// per-trial sampling loop is attributable without re-running the
// engine.

func BenchmarkGaussMass(b *testing.B) {
	// One interval per precision regime: upper tail, lower tail,
	// straddling zero, and deep tail (the relative-precision case).
	intervals := [][2]float64{{0.3, 1.7}, {-2.1, -0.4}, {-0.8, 1.2}, {6, 6.5}}
	sink := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iv := intervals[i&3]
		sink += gaussMass(iv[0], iv[1])
	}
	benchSink = sink
}

func BenchmarkGaussInterp(b *testing.B) {
	intervals := [][2]float64{{0.3, 1.7}, {-2.1, -0.4}, {-0.8, 1.2}, {6, 6.5}}
	var rem [4]float64
	for i, iv := range intervals {
		rem[i] = 0.37 * gaussMass(iv[0], iv[1])
	}
	sink := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iv := intervals[i&3]
		sink += gaussInterp(iv[0], iv[1], rem[i&3])
	}
	benchSink = sink
}

func benchDevice(b *testing.B, qubits int) (*topo.Device, fab.Model, collision.Params) {
	b.Helper()
	d := topo.MonolithicDevice(topo.MonolithicSpec(qubits))
	return d, fab.DefaultModel(), collision.DefaultParams()
}

func BenchmarkImportanceSampleInto(b *testing.B) {
	d, m, p := benchDevice(b, 100)
	est, err := New(Spec{Method: Importance}, d, m, p)
	if err != nil {
		b.Fatal(err)
	}
	r := runner.NewTrialRNG().At(1, 0)
	buf := make([]float64, d.N)
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += est.SampleInto(r, i, buf)
	}
	benchSink = sink
}

func BenchmarkPlainSampleInto(b *testing.B) {
	d, m, p := benchDevice(b, 100)
	est, err := New(Spec{Method: Plain}, d, m, p)
	if err != nil {
		b.Fatal(err)
	}
	r := runner.NewTrialRNG().At(1, 0)
	buf := make([]float64, d.N)
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += est.SampleInto(r, i, buf)
	}
	benchSink = sink
}

// BenchmarkNewImportance builds the importance estimator for the
// paper's 200-qubit device: its collision checker, then the proposal
// tables from the checker's intervals.
func BenchmarkNewImportance(b *testing.B) {
	d, m, p := benchDevice(b, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Spec{Method: Importance}, d, m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSink defeats dead-code elimination of the benchmarked calls.
var benchSink float64
