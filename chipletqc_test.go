package chipletqc

import (
	"context"
	"math"
	"slices"
	"testing"

	"chipletqc/internal/topo"
)

func TestChipletSizes(t *testing.T) {
	want := []int{10, 20, 40, 60, 90, 120, 160, 200, 250}
	got := ChipletSizes()
	if len(got) != len(want) {
		t.Fatalf("sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sizes[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMonolithicAndMCMConstruction(t *testing.T) {
	mono := Monolithic(180)
	if mono.N != 180 {
		t.Errorf("Monolithic(180) has %d qubits", mono.N)
	}
	if err := mono.Validate(); err != nil {
		t.Errorf("monolithic device invalid: %v", err)
	}
	dev, err := MCM(3, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if dev.N != 180 || dev.Chips != 9 {
		t.Errorf("MCM(3,3,20): N=%d chips=%d", dev.N, dev.Chips)
	}
	if err := dev.Validate(); err != nil {
		t.Errorf("MCM device invalid: %v", err)
	}
	if _, err := MCM(2, 2, 33); err == nil {
		t.Error("expected error for non-catalog chiplet size")
	}
}

func TestFacadeYieldPipeline(t *testing.T) {
	mono := Monolithic(100)
	res := simulateYield(t, mono, YieldOptions{Batch: 500, Seed: 1})
	if f := res.Fraction(); f < 0.03 || f > 0.30 {
		t.Errorf("100q yield = %v, want ~0.11", f)
	}
	// Perfect fabrication yields everything.
	perfect := simulateYield(t, mono, YieldOptions{Batch: 50, Seed: 1, Sigma: Ptr(1e-9)})
	if perfect.Fraction() < 0.99 {
		t.Errorf("near-zero sigma yield = %v", perfect.Fraction())
	}
}

func TestFacadeCollisionChecks(t *testing.T) {
	dev := Monolithic(20)
	f := SampleFrequencies(7, DefaultFabModel(), dev)
	free := CollisionFree(dev, f)
	vs := Collisions(dev, f)
	if free != (len(vs) == 0) {
		t.Error("CollisionFree and Collisions disagree")
	}
}

// TestMonolithicAdjacencyIsDeterministic rebuilds the 100-qubit
// monolithic device and checks that its adjacency order, and everything
// derived from it, is the same every time and equals the chip's own:
// Collisions on an all-equal assignment reports every Type 5-7 triple,
// whose Target/Target2 order follows the control's neighbour order.
func TestMonolithicAdjacencyIsDeterministic(t *testing.T) {
	chip := BuildChiplet(topo.MonolithicSpec(100))
	first := Monolithic(100)
	f := make([]float64, first.N)
	for i := range f {
		f[i] = 5.0
	}
	wantPairs := first.ControlPairs()
	wantViolations := Collisions(first, f)
	for rebuild := 0; rebuild < 20; rebuild++ {
		d := Monolithic(100)
		for q := 0; q < d.N; q++ {
			if got := d.G.Neighbors(q); !slices.Equal(got, chip.G.Neighbors(q)) {
				t.Fatalf("rebuild %d: Neighbors(%d) = %v, chip has %v", rebuild, q, got, chip.G.Neighbors(q))
			}
		}
		if got := d.ControlPairs(); !slices.Equal(got, wantPairs) {
			t.Fatalf("rebuild %d: ControlPairs order changed", rebuild)
		}
		if got := Collisions(d, f); !slices.Equal(got, wantViolations) {
			t.Fatalf("rebuild %d: Collisions order changed", rebuild)
		}
	}
}

func TestFacadeAssemblyPipeline(t *testing.T) {
	batch, err := FabricateBatch(context.Background(), 20, 400, BatchOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Yield() < 0.45 || batch.Yield() > 0.85 {
		t.Errorf("batch yield = %v", batch.Yield())
	}
	mods, st := assembleMCMs(t, batch, 2, 2, AssembleOptions{Seed: 3})
	if st.MCMs == 0 || len(mods) != st.MCMs {
		t.Fatalf("assembled %d MCMs, stats %d", len(mods), st.MCMs)
	}
	if mods[0].EAvg() <= 0 {
		t.Error("EAvg should be positive")
	}
	// Improved links lower EAvg on re-assembly.
	modsGood, _ := assembleMCMs(t, batch, 2, 2, AssembleOptions{Seed: 3, LinkMean: Ptr(0.001)})
	if modsGood[0].EAvg() >= mods[0].EAvg() {
		t.Errorf("better links should lower EAvg: %v vs %v",
			modsGood[0].EAvg(), mods[0].EAvg())
	}
	if _, err := FabricateBatch(context.Background(), 33, 10, BatchOptions{}); err == nil {
		t.Error("expected error for unknown chiplet size")
	}
}

func TestFacadeFabricateNegativeSize(t *testing.T) {
	if b, err := FabricateBatch(context.Background(), 20, -5, BatchOptions{}); err == nil {
		t.Errorf("FabricateBatch(size -5) = %+v, nil; want an error", b)
	}
}

func TestFacadeCompileAndFidelity(t *testing.T) {
	dev, err := MCM(2, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	circ := GHZ(UtilizedQubits(dev.N))
	res, err := Compile(DecomposeCircuit(circ), dev)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := FabricateBatch(context.Background(), 20, 300, BatchOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mods, _ := assembleMCMs(t, batch, 2, 2, AssembleOptions{Seed: 5})
	if len(mods) == 0 {
		t.Fatal("no modules")
	}
	chip, err := ChipletSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	_ = chip
	a := mods[0].Errors(dev, buildChipFor(t))
	lf := LogFidelity(res, a)
	if lf >= 0 || math.IsInf(lf, -1) {
		t.Errorf("log fidelity = %v, want finite negative", lf)
	}
	if fp := FidelityProduct(res, a); fp <= 0 || fp >= 1 {
		t.Errorf("fidelity product = %v, want in (0,1)", fp)
	}
}

// buildChipFor constructs the 20q chiplet topology via the facade types.
func buildChipFor(t *testing.T) *Chip {
	t.Helper()
	spec, err := ChipletSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	return BuildChiplet(spec)
}

func TestFacadeSimulatorValidation(t *testing.T) {
	s := Simulate(GHZ(3))
	if p := s.Probability(0b111); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("GHZ(3) P(111) = %v", p)
	}
}

func TestFacadeBenchmarkSuite(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 7 {
		t.Fatalf("suite = %d benchmarks", len(bs))
	}
	for _, b := range bs {
		c := b.Generate(16, 1)
		if c.TwoQubitGates() == 0 {
			t.Errorf("%s has no 2q gates", b.Name)
		}
	}
}

func TestFacadeExperimentEntryPoints(t *testing.T) {
	cfg := QuickExperimentConfig(20)
	cfg.MonoBatch = 100
	cfg.ChipletBatch = 100

	if rows := must(Fig1(context.Background(), cfg)); len(rows) != 9 {
		t.Errorf("Fig1 rows = %d", len(rows))
	}
	if r := Fig2(9, 4, 7); r.ChipletGood <= r.MonoGood {
		t.Error("Fig2 should favour chiplets")
	}
	if s := must(Fig3b(context.Background(), cfg)); len(s) != 3 {
		t.Errorf("Fig3b = %d summaries", len(s))
	}
	if cells := must(Fig4(context.Background(), cfg, 60)); len(cells) != 12 {
		t.Errorf("Fig4 cells = %d", len(cells))
	}
	if res := must(Fig6(context.Background(), cfg, 500, 3)); len(res.Rows) != 2 {
		t.Errorf("Fig6 rows = %d", len(res.Rows))
	}
	if res := must(Fig7(context.Background(), cfg)); len(res.Points) == 0 {
		t.Error("Fig7 empty")
	}
	if rows, err := Table2(context.Background(), cfg); err != nil || len(rows) != 35 {
		t.Errorf("Table2 = %d rows, err %v", len(rows), err)
	}
	if grids := EnumerateMCMs(500); len(grids) < 60 {
		t.Errorf("EnumerateMCMs = %d", len(grids))
	}
	if sq := SquareMCMs(500); len(sq) == 0 {
		t.Error("SquareMCMs empty")
	}
}
