package chipletqc

// Ablation benchmarks for the design choices and extension features the
// paper names: uneven frequency spacing (Section IV-B future work),
// laser-tuning effort (Section III-C), link-aware compilation (Section
// VIII), assembly reshuffle budget and bump-bond sensitivity (Section
// VII-B), and correlated-error isolation (Section V).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// newBenchRand builds a deterministic RNG for ablation loops.
func newBenchRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// BenchmarkAblationAsymmetricStep sweeps uneven F0->F1 / F1->F2 spacings
// around the paper's symmetric 0.06 GHz optimum on a 60-qubit chiplet.
func BenchmarkAblationAsymmetricStep(b *testing.B) {
	dev := Monolithic(60)
	type combo struct{ lo, hi float64 }
	combos := []combo{
		{0.06, 0.06}, // the paper's symmetric optimum
		{0.05, 0.07},
		{0.07, 0.05},
		{0.055, 0.065},
		{0.065, 0.055},
	}
	yields := map[combo]float64{}
	for i := 0; i < b.N; i++ {
		for _, c := range combos {
			plan := AsymmetricFreqPlan(5.0, c.lo, c.hi)
			res, err := SimulateYieldWithPlan(context.Background(), dev, plan, YieldOptions{Sigma: Ptr(SigmaLaserTuned), Batch: 800, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			yields[c] = res.Fraction()
		}
	}
	for _, c := range combos {
		b.ReportMetric(yields[c], fmt.Sprintf("y%.0f/%.0f", c.lo*1000, c.hi*1000))
	}
}

// BenchmarkAblationLaserTuningEffort sweeps the selective-tuning
// threshold: how much laser effort buys how much yield on a 60q chiplet.
func BenchmarkAblationLaserTuningEffort(b *testing.B) {
	dev := Monolithic(60)
	thresholds := []float64{0, 0.014, 0.05, 0.1323, 1}
	type out struct{ yield, tuned float64 }
	results := map[float64]out{}
	for i := 0; i < b.N; i++ {
		for _, th := range thresholds {
			m := DefaultTunedFabModel()
			m.Threshold = th
			free, tunedSum := 0, 0.0
			const batch = 600
			f := make([]float64, dev.N)
			r := newBenchRand(benchSeed)
			for k := 0; k < batch; k++ {
				st := m.SampleInto(r, dev, f)
				tunedSum += st.Fraction()
				if CollisionFree(dev, f) {
					free++
				}
			}
			results[th] = out{yield: float64(free) / batch, tuned: tunedSum / batch}
		}
	}
	for _, th := range thresholds {
		b.ReportMetric(results[th].yield, fmt.Sprintf("y@th%.3f", th))
		b.ReportMetric(results[th].tuned, fmt.Sprintf("tuned@th%.3f", th))
	}
}

// BenchmarkAblationLinkAwareRouting compares naive vs link-aware routing
// on a 2x2 MCM of 40q chiplets: link-gate traffic and total 2q counts.
func BenchmarkAblationLinkAwareRouting(b *testing.B) {
	dev, err := MCM(2, 2, 40)
	if err != nil {
		b.Fatal(err)
	}
	countLink := func(r *CompileResult) (links, total int) {
		for _, g := range r.Compiled.Gates {
			if g.IsTwoQubit() {
				total++
				if dev.IsLink(int(g.Qubits()[0]), int(g.Qubits()[1])) {
					links++
				}
			}
		}
		return links, total
	}
	var naiveLinks, awareLinks, naiveTotal, awareTotal int
	for i := 0; i < b.N; i++ {
		naiveLinks, awareLinks, naiveTotal, awareTotal = 0, 0, 0, 0
		for _, bs := range Benchmarks() {
			c := bs.Generate(UtilizedQubits(dev.N), benchSeed)
			naive, err := Compile(c, dev)
			if err != nil {
				b.Fatal(err)
			}
			aware, err := CompileWithOptions(c, dev, CompileOptions{EdgeCost: LinkAwareCost(dev, 4)})
			if err != nil {
				b.Fatal(err)
			}
			nl, nt := countLink(naive)
			al, at := countLink(aware)
			naiveLinks += nl
			naiveTotal += nt
			awareLinks += al
			awareTotal += at
		}
	}
	b.ReportMetric(float64(naiveLinks), "naive-link-2q")
	b.ReportMetric(float64(awareLinks), "aware-link-2q")
	b.ReportMetric(float64(naiveTotal), "naive-2q")
	b.ReportMetric(float64(awareTotal), "aware-2q")
}

// BenchmarkAblationReshuffleBudget sweeps the assembly reshuffle timeout
// (the paper uses 100): does shuffling actually rescue MCMs?
func BenchmarkAblationReshuffleBudget(b *testing.B) {
	batch, err := FabricateBatch(context.Background(), 20, 1500, BatchOptions{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	// Zero is expressible since the pointer-option revision: Ptr(0)
	// really disables reshuffling (the old API silently fell back to
	// the default of 100 for any value <= 0).
	budgets := []int{0, 10, 100}
	yields := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, budget := range budgets {
			opts := AssembleOptions{Seed: benchSeed, MaxReshuffles: Ptr(budget)}
			_, st, err := AssembleMCMs(context.Background(), batch, 3, 3, opts)
			if err != nil {
				b.Fatal(err)
			}
			yields[budget] = st.AssemblyYield
		}
	}
	b.ReportMetric(yields[0], "yield@0")
	b.ReportMetric(yields[10], "yield@10")
	b.ReportMetric(yields[100], "yield@100")
}

// BenchmarkAblationBondFailureScale sweeps bump-bond failure from
// nominal through the paper's 100x sensitivity case and beyond.
func BenchmarkAblationBondFailureScale(b *testing.B) {
	batch, err := FabricateBatch(context.Background(), 20, 1000, BatchOptions{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	scales := []float64{1, 100, 10000}
	yields := map[float64]float64{}
	for i := 0; i < b.N; i++ {
		for _, s := range scales {
			_, st, err := AssembleMCMs(context.Background(), batch, 4, 4, AssembleOptions{Seed: benchSeed, BondFailureScale: Ptr(s)})
			if err != nil {
				b.Fatal(err)
			}
			yields[s] = st.PostAssemblyYield
		}
	}
	b.ReportMetric(yields[1], "yield@1x")
	b.ReportMetric(yields[100], "yield@100x")
	b.ReportMetric(yields[10000], "yield@10000x")
}

// BenchmarkAblationRayIsolation quantifies Section V's correlated-error
// isolation claim: mean corrupted fraction, MCM vs monolithic.
func BenchmarkAblationRayIsolation(b *testing.B) {
	mcmDev, err := MCM(3, 3, 20)
	if err != nil {
		b.Fatal(err)
	}
	mono := Monolithic(180)
	var isolation float64
	var mcmRes, monoRes RayResult
	for i := 0; i < b.N; i++ {
		mcmRes, monoRes, isolation = CompareRays(mcmDev, mono, DefaultRayConfig(benchSeed))
	}
	b.ReportMetric(mcmRes.MeanCorrupted, "mcm-corrupted")
	b.ReportMetric(monoRes.MeanCorrupted, "mono-corrupted")
	b.ReportMetric(isolation, "isolation-x")
	if math.IsInf(isolation, 0) {
		b.Fatal("unexpected infinite isolation")
	}
}

// BenchmarkAblationAllocationOptimality anneals per-qubit frequency
// classes against the hand-designed heavy-hex pattern; improvement
// pinned at ~1.0x demonstrates the pattern is (near-)optimal.
func BenchmarkAblationAllocationOptimality(b *testing.B) {
	dev := Monolithic(60)
	var res AllocationResult
	for i := 0; i < b.N; i++ {
		res = OptimizeAllocation(dev, SigmaLaserTuned, 10000, benchSeed)
	}
	b.ReportMetric(res.Improvement(), "improvement-x")
	b.ReportMetric(res.PatternLogYield, "pattern-logY")
	b.ReportMetric(float64(res.Accepted), "accepted-moves")
}

// BenchmarkAblationAnalyticVsMonteCarlo measures the closed-form yield
// model's speed and agreement against the Monte Carlo engine.
func BenchmarkAblationAnalyticVsMonteCarlo(b *testing.B) {
	dev := Monolithic(100)
	plan := AsymmetricFreqPlan(5.0, 0.06, 0.06)
	var an float64
	for i := 0; i < b.N; i++ {
		an = AnalyticYield(dev, plan, SigmaLaserTuned)
	}
	mc := simulateYield(b, dev, YieldOptions{Batch: 1000, Seed: benchSeed}).Fraction()
	b.ReportMetric(an, "analytic")
	b.ReportMetric(mc, "monte-carlo")
}
