package assembly

import (
	"context"
	"fmt"
	"math/rand"

	"chipletqc/internal/collision"
	"chipletqc/internal/graph"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/topo"
)

// AssembleConfig parameterises MCM stitching (Section VII-B). Callers
// compose it from a device scenario (internal/scenario's
// Scenario.AssembleConfig is the standard constructor, with the paper's
// runtime choices on the "paper" scenario) or field by field in tests.
type AssembleConfig struct {
	// MaxReshuffles is the timeout on chiplet placement shuffles when a
	// candidate MCM shows an inter-chiplet collision (paper: 100).
	MaxReshuffles int
	// BondFailureScale scales the per-bump failure probability; 1 is
	// nominal, 100 is the paper's sensitivity analysis.
	BondFailureScale float64
	// Link is the inter-chip link error distribution.
	Link noise.LinkModel
	// Params are the Table I collision thresholds.
	Params collision.Params
	// Seed drives placement shuffles and link error sampling.
	Seed int64
}

// AssembledMCM is one complete, collision-free multi-chip module.
type AssembledMCM struct {
	Grid    mcm.Grid
	Members []*Chiplet // row-major chip placement
	Freq    []float64  // realised frequency per global qubit
	// LinkErr maps each inter-chip coupling to its sampled infidelity.
	LinkErr map[graph.Edge]float64
	// chipErrSum and couplings cache the E_avg computation.
	chipErrSum float64
	nCouplings int
}

// EAvg returns the two-qubit gate infidelity averaged across every
// coupled qubit pair of the module (intra-chip and link), the paper's
// E_avg,MCM metric. Link errors are summed in sorted edge order so the
// floating-point result is reproducible (map iteration order is not).
func (m *AssembledMCM) EAvg() float64 {
	if m.nCouplings == 0 {
		return 0
	}
	sum := m.chipErrSum
	for _, e := range m.linkEdges() {
		sum += m.LinkErr[e]
	}
	return sum / float64(m.nCouplings)
}

// linkEdges returns the module's inter-chip couplings in deterministic
// sorted order.
func (m *AssembledMCM) linkEdges() []graph.Edge {
	edges := make([]graph.Edge, 0, len(m.LinkErr))
	for e := range m.LinkErr {
		edges = append(edges, e)
	}
	graph.SortEdges(edges)
	return edges
}

// Errors returns the full per-coupling error assignment of the module,
// for application-level evaluation.
func (m *AssembledMCM) Errors(dev *topo.Device, chip *topo.Chip) noise.Assignment {
	errs := make(map[graph.Edge]float64, m.nCouplings)
	chipEdges := chip.G.Edges()
	for c, member := range m.Members {
		base := c * chip.N
		for j, e := range chipEdges {
			errs[globalEdge(base, e)] = member.EdgeErr[j]
		}
	}
	for e, v := range m.LinkErr {
		errs[e] = v
	}
	return noise.Assignment{Err: errs}
}

// Stats summarises one assembly run.
type Stats struct {
	Grid          mcm.Grid
	BatchSize     int     // chiplets fabricated
	FreeChiplets  int     // collision-free chiplets (KGD survivors)
	MCMs          int     // complete, collision-free MCMs assembled
	ChipsUsed     int     // chiplets consumed by those MCMs
	Leftover      int     // free chiplets that could not be placed
	LinkedQubits  int     // linked qubits per MCM (bump-bond exposure)
	ChipletYield  float64 // FreeChiplets / BatchSize
	AssemblyYield float64 // ChipsUsed / BatchSize
	// PostAssemblyYield folds in bump-bond survival:
	// AssemblyYield * (s_l^25)^LinkedQubits (Section VII-C1).
	PostAssemblyYield float64
}

// Assembler stitches one batch's sorted bin into MCMs best-first, one
// module per pull, following the paper's procedure (Section VII-B):
// take the lowest-error chiplets first; if the stitched module shows an
// inter-chiplet collision, shuffle placement up to MaxReshuffles times;
// on timeout, set the best chiplet of the failed subset aside and
// continue with the next subset.
//
// One RNG, seeded by AssembleConfig.Seed, drives both the shuffles and
// the link draws, and each module consumes it only after every module
// before it. So the first k modules pulled are bit-identical to the
// first k that a full drain (Assemble) returns, and a caller that keeps
// only the best k stops paying for the rest of the bin.
type Assembler struct {
	grid      mcm.Grid
	cfg       AssembleConfig
	dev       *topo.Device
	checker   *collision.Checker
	r         *rand.Rand
	linkEdges []graph.Edge
	bin       []*Chiplet // candidates not yet placed or set aside, best first
	sub       []*Chiplet // the candidate subset, in its current placement
	freq      []float64  // composition buffer, one entry per global qubit
	reads     []slot     // the composition entries the checker reads
	nPer      int        // qubits per chiplet
}

// slot locates global qubit q as qubit local of the chiplet at
// placement position pos.
type slot struct{ q, pos, local int32 }

// NewAssembler prepares the assembly of batch b into modules of the
// given grid. The grid must tile the batch's own chiplet design.
//
// When b's dies were KGD-tested under cfg.Params, the assembler checks
// only the seam criteria (collision.NewSeamChecker); otherwise it
// checks every criterion of the module.
func NewAssembler(b *Batch, grid mcm.Grid, cfg AssembleConfig) (*Assembler, error) {
	if grid.Spec != b.Spec {
		return nil, fmt.Errorf("assembly: grid %v tiles %dq chiplets %+v, but the batch holds %dq chiplets %+v",
			grid, grid.Spec.Qubits(), grid.Spec, b.Spec.Qubits(), b.Spec)
	}
	dev, err := mcm.Build(grid)
	if err != nil {
		return nil, err
	}
	checker := collision.NewChecker
	if b.kgd != nil && *b.kgd == cfg.Params {
		checker = collision.NewSeamChecker
	}
	a := &Assembler{
		grid:    grid,
		cfg:     cfg,
		dev:     dev,
		checker: checker(dev, cfg.Params),
		r:       rand.New(rand.NewSource(cfg.Seed)),
		bin:     b.Free,
		sub:     make([]*Chiplet, grid.Chips()),
		freq:    make([]float64, dev.N),
		nPer:    b.Chip.N,
	}
	qs := a.checker.Qubits()
	a.reads = make([]slot, len(qs))
	for i, q := range qs {
		a.reads[i] = slot{int32(q), int32(q / a.nPer), int32(q % a.nPer)}
	}
	// The links are the couplings between chips, in edge order.
	a.linkEdges = make([]graph.Edge, 0, grid.LinksPerAssembly())
	for _, e := range dev.G.Edges() {
		if dev.ChipOf[e.U] != dev.ChipOf[e.V] {
			a.linkEdges = append(a.linkEdges, e)
		}
	}
	return a, nil
}

// Device returns the MCM device the assembler stitches modules for.
func (a *Assembler) Device() *topo.Device { return a.dev }

// Take pulls up to k more modules, best first, or every remaining one
// when k <= 0; it returns fewer once the bin cannot fill another
// module. The context is checked between candidate subsets; a cancelled
// ctx returns ctx.Err() and discards the modules of this call.
func (a *Assembler) Take(ctx context.Context, k int) ([]*AssembledMCM, error) {
	var out []*AssembledMCM
	for k <= 0 || len(out) < k {
		ok, err := a.place(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, a.module())
	}
	return out, nil
}

// count drains the assembler like Take(ctx, 0) but keeps no modules: it
// makes the same placements and link draws and returns how many modules
// were placed.
func (a *Assembler) count(ctx context.Context) (int, error) {
	n := 0
	for {
		ok, err := a.place(ctx)
		if err != nil || !ok {
			return n, err
		}
		for range a.linkEdges {
			a.cfg.Link.Sample(a.r)
		}
		n++
	}
}

// place finds the next module: it leaves the placed chiplets in a.sub
// and returns true, or returns false once fewer free chiplets remain
// than the grid has positions. Each attempt composes only the qubits
// the checker reads.
func (a *Assembler) place(ctx context.Context) (bool, error) {
	chips := len(a.sub)
	for len(a.bin) >= chips {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		copy(a.sub, a.bin[:chips])
		for attempt := 0; attempt <= a.cfg.MaxReshuffles; attempt++ {
			if attempt > 0 {
				a.r.Shuffle(chips, func(i, j int) {
					a.sub[i], a.sub[j] = a.sub[j], a.sub[i]
				})
			}
			for _, s := range a.reads {
				a.freq[s.q] = a.sub[s.pos].Freq[s.local]
			}
			if a.checker.Free(a.freq) {
				a.bin = a.bin[chips:]
				return true, nil
			}
		}
		// Timeout: release the subset, set its best chiplet aside, and
		// move on with the next candidates.
		a.bin = a.bin[1:]
	}
	return false, nil
}

// module builds the module just placed and draws its link errors.
func (a *Assembler) module() *AssembledMCM {
	m := &AssembledMCM{
		Grid:       a.grid,
		Members:    append([]*Chiplet(nil), a.sub...),
		Freq:       make([]float64, a.dev.N),
		LinkErr:    make(map[graph.Edge]float64, len(a.linkEdges)),
		nCouplings: a.dev.G.M(),
	}
	for c, member := range m.Members {
		copy(m.Freq[c*a.nPer:], member.Freq)
		for _, e := range member.EdgeErr {
			m.chipErrSum += e
		}
	}
	for _, e := range a.linkEdges {
		m.LinkErr[e] = a.cfg.Link.Sample(a.r)
	}
	return m
}

// Assemble builds as many complete, collision-free MCMs as possible from
// the batch's sorted bin: it drains an Assembler and summarises the run.
// A cancelled ctx returns ctx.Err() and discards the partial assembly.
func Assemble(ctx context.Context, b *Batch, grid mcm.Grid, cfg AssembleConfig) ([]*AssembledMCM, Stats, error) {
	a, err := NewAssembler(b, grid, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	out, err := a.Take(ctx, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, a.stats(b, len(out)), nil
}

// AssembleStats is Assemble's Stats without its modules: it makes the
// same placements and draws, so the counts are Assemble's, but builds
// no AssembledMCM.
func AssembleStats(ctx context.Context, b *Batch, grid mcm.Grid, cfg AssembleConfig) (Stats, error) {
	a, err := NewAssembler(b, grid, cfg)
	if err != nil {
		return Stats{}, err
	}
	n, err := a.count(ctx)
	if err != nil {
		return Stats{}, err
	}
	return a.stats(b, n), nil
}

// stats summarises a drain of batch b that assembled n modules.
func (a *Assembler) stats(b *Batch, n int) Stats {
	linked := len(a.dev.LinkedQubits())
	st := Stats{
		Grid:         a.grid,
		BatchSize:    b.Size,
		FreeChiplets: len(b.Free),
		MCMs:         n,
		ChipsUsed:    n * a.grid.Chips(),
		LinkedQubits: linked,
		ChipletYield: b.Yield(),
	}
	st.Leftover = st.FreeChiplets - st.ChipsUsed
	if b.Size > 0 {
		st.AssemblyYield = float64(st.ChipsUsed) / float64(b.Size)
	}
	st.PostAssemblyYield = st.AssemblyYield * BondSurvival(linked, a.cfg.BondFailureScale)
	return st
}

// ResampleLinks redraws every link error of the module from a new link
// model; used by the Fig. 9 e_link/e_chip sweeps without re-assembling.
// Links resample in sorted edge order so the RNG stream is consumed
// deterministically (map iteration order is not).
func (m *AssembledMCM) ResampleLinks(r *rand.Rand, link noise.LinkModel) {
	for _, e := range m.linkEdges() {
		m.LinkErr[e] = link.Sample(r)
	}
}
