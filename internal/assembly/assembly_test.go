package assembly

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/topo"
)

func testBatch(t *testing.T, spec topo.ChipSpec, size int) *Batch {
	t.Helper()
	return fabricate(t, spec, size, testBatchConfig(77))
}

func TestFabricateBinIsSortedAndFree(t *testing.T) {
	b := testBatch(t, topo.ChipSpec{DenseRows: 2, Width: 8}, 500)
	if b.Size != 500 {
		t.Fatalf("batch size = %d", b.Size)
	}
	if y := b.Yield(); y < 0.45 || y > 0.85 {
		t.Errorf("20q chiplet yield = %v, want ~0.69", y)
	}
	for i := 1; i < len(b.Free); i++ {
		if b.Free[i-1].AvgErr > b.Free[i].AvgErr {
			t.Fatal("bin not sorted by average error")
		}
	}
	nEdges := b.Chip.G.M()
	for _, c := range b.Free {
		if len(c.Freq) != b.Chip.N || len(c.EdgeErr) != nEdges {
			t.Fatalf("chiplet %d has wrong shapes", c.ID)
		}
		if c.AvgErr <= 0 {
			t.Fatalf("chiplet %d avg error %v", c.ID, c.AvgErr)
		}
	}
}

func TestFabricateOrderMatchesStableSort(t *testing.T) {
	// The bin is ordered by AvgErr with ties in ascending ID, the order
	// a stable sort by AvgErr leaves the ascending-ID survivors in. A
	// two-valued detuning model makes ties common, so the tie order is
	// exercised too.
	twoValued := noise.NewDetuningModel([]noise.CalibPoint{
		{Detuning: 0, Infidelity: 0.01}, {Detuning: 0, Infidelity: 0.03},
	}, 1)
	for _, seed := range []int64{1, 2, 3, 77} {
		for _, tied := range []bool{false, true} {
			cfg := testBatchConfig(seed)
			if tied {
				cfg.Det = twoValued
			}
			b := fabricate(t, topo.ChipSpec{DenseRows: 1, Width: 8}, 400, cfg)
			want := slices.Clone(b.Free)
			slices.SortFunc(want, func(x, y *Chiplet) int { return x.ID - y.ID })
			sort.SliceStable(want, func(i, j int) bool { return want[i].AvgErr < want[j].AvgErr })
			ties := 0
			for i := range want {
				if b.Free[i] != want[i] {
					t.Fatalf("seed %d tied=%v: bin position %d holds chiplet %d, stable sort puts %d there",
						seed, tied, i, b.Free[i].ID, want[i].ID)
				}
				if i > 0 && want[i].AvgErr == want[i-1].AvgErr {
					ties++
				}
			}
			if tied && ties == 0 {
				t.Fatalf("seed %d: two-valued model produced no ties", seed)
			}
		}
	}
}

func TestFabricateEmptyBatch(t *testing.T) {
	b := fabricate(t, topo.ChipSpec{DenseRows: 1, Width: 8}, 0, testBatchConfig(1))
	if b.Yield() != 0 || len(b.Free) != 0 {
		t.Error("empty batch should have zero yield")
	}
}

func TestLinkQubitSurvival(t *testing.T) {
	s := LinkQubitSurvival(1)
	want := math.Pow(BumpSuccess, BumpsPerLinkQubit)
	if math.Abs(s-want) > 1e-12 {
		t.Errorf("survival = %v, want %v", s, want)
	}
	if s100 := LinkQubitSurvival(100); s100 >= s {
		t.Errorf("100x failure survival %v should be below nominal %v", s100, s)
	}
	// Extreme scale clamps to zero success.
	if s := LinkQubitSurvival(1e10); s != 0 {
		t.Errorf("absurd failure scale survival = %v, want 0", s)
	}
	if s := LinkQubitSurvival(0); s != 1 {
		t.Errorf("zero failure scale survival = %v, want 1", s)
	}
}

func TestBondSurvival(t *testing.T) {
	if got := BondSurvival(0, 1); got != 1 {
		t.Errorf("no linked qubits survival = %v, want 1", got)
	}
	l10 := BondSurvival(10, 1)
	l100 := BondSurvival(100, 1)
	if !(l100 < l10 && l10 < 1) {
		t.Errorf("survival should fall with linked qubits: %v, %v", l10, l100)
	}
	// At nominal rates the loss is tiny (paper: assembly loss "only
	// slightly" impacts yield).
	if l100 < 0.995 {
		t.Errorf("nominal 100-qubit survival = %v, want > 0.995", l100)
	}
	// At 100x it becomes visible.
	if s := BondSurvival(100, 100); s > 0.95 {
		t.Errorf("100x survival = %v, want visibly reduced", s)
	}
}

func TestLog10Configurations(t *testing.T) {
	// P(5, 2) = 20 -> log10 = 1.301.
	if got := Log10Configurations(5, 2); math.Abs(got-math.Log10(20)) > 1e-12 {
		t.Errorf("log10 P(5,2) = %v", got)
	}
	if got := Log10Configurations(3, 5); !math.IsInf(got, -1) {
		t.Errorf("infeasible configurations = %v, want -Inf", got)
	}
	// The paper's Fig. 6 scale: ~69,421 free chiplets in a 2x2 MCM give
	// an astronomically large configuration count.
	if got := Log10Configurations(69421, 4); got < 19 || got > 20 {
		t.Errorf("log10 P(69421,4) = %v, want ~19.4", got)
	}
}

func TestMaxAssemblies(t *testing.T) {
	if got := MaxAssemblies(69421, 4); got != 17355 {
		t.Errorf("MaxAssemblies = %d, want 17355", got)
	}
	if MaxAssemblies(10, 0) != 0 {
		t.Error("zero-chip MCM should yield 0 assemblies")
	}
}

func TestFabricationOutputPaperExample(t *testing.T) {
	// Section V-C worked example: Yc=0.85, B=1000, qm=100, qc=10,
	// 2x5 MCM -> N = 850.
	got := FabricationOutput(0.85, 1000, 100, 10, 10)
	if math.Abs(got-850) > 1e-9 {
		t.Errorf("Eq. 1 output = %v, want 850", got)
	}
	if FabricationOutput(0.85, 1000, 100, 0, 10) != 0 {
		t.Error("qc=0 should give 0")
	}
}

func TestAssembleBuildsCollisionFreeMCMs(t *testing.T) {
	b := testBatch(t, topo.ChipSpec{DenseRows: 2, Width: 8}, 400)
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}
	mods, st := assemble(t, b, grid, testAssembleConfig(5))
	if st.MCMs == 0 {
		t.Fatal("no MCMs assembled from a healthy batch")
	}
	if st.MCMs != len(mods) {
		t.Errorf("stats MCMs %d != modules %d", st.MCMs, len(mods))
	}
	if st.ChipsUsed != st.MCMs*4 {
		t.Errorf("chips used %d != 4 * MCMs", st.ChipsUsed)
	}
	if st.ChipsUsed+st.Leftover != st.FreeChiplets {
		t.Errorf("accounting broken: used %d + leftover %d != free %d",
			st.ChipsUsed, st.Leftover, st.FreeChiplets)
	}
	if st.AssemblyYield > st.ChipletYield {
		t.Error("assembly yield cannot exceed chiplet yield")
	}
	if st.PostAssemblyYield > st.AssemblyYield {
		t.Error("post-assembly yield cannot exceed assembly yield")
	}
}

// TestAssembleRejectsInvalidGrid: a grid with no rows is an error, not
// a panic.
func TestAssembleRejectsInvalidGrid(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	b := testBatch(t, spec, 20)
	_, _, err := Assemble(context.Background(), b, mcm.Grid{Rows: 0, Cols: 2, Spec: spec}, testAssembleConfig(5))
	if err == nil || !strings.Contains(err.Error(), "0x2") {
		t.Errorf("err = %v, want the grid validation error", err)
	}
}

func TestAssembledMCMValidity(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	b := testBatch(t, spec, 300)
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: spec}
	mods, _ := assemble(t, b, grid, testAssembleConfig(6))
	if len(mods) == 0 {
		t.Fatal("need at least one module")
	}
	dev := mcm.MustBuild(grid)
	chip := topo.BuildChip(spec)
	for _, m := range mods {
		if len(m.Freq) != dev.N {
			t.Fatalf("freq length %d != %d", len(m.Freq), dev.N)
		}
		if len(m.LinkErr) != grid.LinksPerAssembly() {
			t.Errorf("link errors %d != %d", len(m.LinkErr), grid.LinksPerAssembly())
		}
		if e := m.EAvg(); e <= 0 || e >= 0.5 {
			t.Errorf("EAvg = %v out of range", e)
		}
		a := m.Errors(dev, chip)
		if len(a.Err) != dev.G.M() {
			t.Errorf("full assignment covers %d couplings, want %d", len(a.Err), dev.G.M())
		}
		if math.Abs(a.Mean()-m.EAvg()) > 1e-12 {
			t.Errorf("assignment mean %v != EAvg %v", a.Mean(), m.EAvg())
		}
	}
}

func TestAssembleUsesBestChipletsFirst(t *testing.T) {
	b := testBatch(t, topo.ChipSpec{DenseRows: 2, Width: 8}, 600)
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}
	mods, _ := assemble(t, b, grid, testAssembleConfig(7))
	if len(mods) < 4 {
		t.Fatal("need several modules")
	}
	first := avgMemberErr(mods[0])
	last := avgMemberErr(mods[len(mods)-1])
	if first >= last {
		t.Errorf("first module avg member error %v should beat last %v", first, last)
	}
}

func avgMemberErr(m *AssembledMCM) float64 {
	var s float64
	for _, c := range m.Members {
		s += c.AvgErr
	}
	return s / float64(len(m.Members))
}

func TestAssembleInsufficientChiplets(t *testing.T) {
	b := testBatch(t, topo.ChipSpec{DenseRows: 2, Width: 8}, 4) // likely < 4 free chips
	grid := mcm.Grid{Rows: 3, Cols: 3, Spec: topo.ChipSpec{DenseRows: 2, Width: 8}}
	mods, st := assemble(t, b, grid, testAssembleConfig(8))
	if len(mods) != 0 || st.MCMs != 0 {
		t.Error("cannot assemble 9-chip MCM from a 4-die batch")
	}
	if st.Leftover != st.FreeChiplets {
		t.Error("all free chips should be leftover")
	}
}

func TestAssembleDeterministic(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: spec}
	b1 := testBatch(t, spec, 300)
	b2 := testBatch(t, spec, 300)
	m1, s1 := assemble(t, b1, grid, testAssembleConfig(9))
	m2, s2 := assemble(t, b2, grid, testAssembleConfig(9))
	if s1.MCMs != s2.MCMs {
		t.Fatalf("non-deterministic assembly: %d vs %d", s1.MCMs, s2.MCMs)
	}
	for i := range m1 {
		if math.Abs(m1[i].EAvg()-m2[i].EAvg()) > 1e-15 {
			t.Fatal("non-deterministic EAvg")
		}
	}
}

func TestResampleLinks(t *testing.T) {
	spec := topo.ChipSpec{DenseRows: 2, Width: 8}
	b := testBatch(t, spec, 200)
	grid := mcm.Grid{Rows: 2, Cols: 2, Spec: spec}
	mods, _ := assemble(t, b, grid, testAssembleConfig(10))
	if len(mods) == 0 {
		t.Fatal("need a module")
	}
	m := mods[0]
	before := m.EAvg()
	// Resample with a much better link model: EAvg must drop.
	low := noise.DefaultLinkModel().WithMean(0.001)
	m.ResampleLinks(rand.New(rand.NewSource(3)), low)
	after := m.EAvg()
	if after >= before {
		t.Errorf("EAvg should drop after link improvement: %v -> %v", before, after)
	}
}

func TestOddRowChipletAssembles(t *testing.T) {
	// The 10q chiplet (odd dense rows) exercises the shifted vertical
	// links; a 3x3 MCM of them must assemble collision-free.
	spec := topo.ChipSpec{DenseRows: 1, Width: 8}
	b := testBatch(t, spec, 300)
	grid := mcm.Grid{Rows: 3, Cols: 3, Spec: spec}
	mods, st := assemble(t, b, grid, testAssembleConfig(11))
	if st.MCMs == 0 {
		t.Fatal("no 10q-chiplet MCMs assembled")
	}
	if mods[0].EAvg() <= 0 {
		t.Error("bad EAvg")
	}
	// Assembly should succeed for most subsets (healthy boundary
	// pattern): the yield loss relative to the chiplet bin is small.
	if st.AssemblyYield < 0.5*st.ChipletYield {
		t.Errorf("assembly yield %v too far below chiplet yield %v",
			st.AssemblyYield, st.ChipletYield)
	}
}
