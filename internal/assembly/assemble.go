package assembly

import (
	"context"
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

// Assemble builds as many complete, collision-free MCMs as possible from
// the batch's sorted bin, following the paper's procedure: take the
// lowest-error chiplets first; if the stitched module shows an
// inter-chiplet collision, shuffle placement up to MaxReshuffles times;
// on timeout, set the best chiplet of the failed subset aside and
// continue with the next subset. The context is checked between
// candidate subsets; a cancelled ctx returns ctx.Err() and discards the
// partial assembly.
func Assemble(ctx context.Context, b *Batch, grid mcm.Grid, cfg AssembleConfig) ([]*AssembledMCM, Stats, error) {
	dev, err := mcm.Build(grid)
	if err != nil {
		return nil, Stats{}, err
	}
	checker := collision.NewChecker(dev, cfg.Params)
	chips := grid.Chips()
	nPer := b.Chip.N
	r := rand.New(rand.NewSource(cfg.Seed))

	linkEdges := make([]graph.Edge, 0, len(dev.Link))
	for _, e := range dev.G.Edges() {
		if dev.Link[e] {
			linkEdges = append(linkEdges, e)
		}
	}

	bin := append([]*Chiplet(nil), b.Free...)
	var out []*AssembledMCM
	var leftover []*Chiplet
	freq := make([]float64, dev.N)

	compose := func(members []*Chiplet) {
		for c, m := range members {
			copy(freq[c*nPer:(c+1)*nPer], m.Freq)
		}
	}

	for len(bin) >= chips {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		subset := append([]*Chiplet(nil), bin[:chips]...)
		placed := false
		for attempt := 0; attempt <= cfg.MaxReshuffles; attempt++ {
			if attempt > 0 {
				r.Shuffle(len(subset), func(i, j int) {
					subset[i], subset[j] = subset[j], subset[i]
				})
			}
			compose(subset)
			if checker.Free(freq) {
				placed = true
				break
			}
		}
		if !placed {
			// Timeout: release the subset, retire its best chiplet, and
			// move on with the next candidates.
			leftover = append(leftover, bin[0])
			bin = bin[1:]
			continue
		}
		m := &AssembledMCM{
			Grid:       grid,
			Members:    subset,
			Freq:       append([]float64(nil), freq...),
			LinkErr:    make(map[graph.Edge]float64, len(linkEdges)),
			nCouplings: dev.G.M(),
		}
		for _, member := range subset {
			for _, e := range member.EdgeErr {
				m.chipErrSum += e
			}
		}
		for _, e := range linkEdges {
			m.LinkErr[e] = cfg.Link.Sample(r)
		}
		out = append(out, m)
		bin = bin[chips:]
	}
	leftover = append(leftover, bin...)

	linked := len(dev.LinkedQubits())
	st := Stats{
		Grid:         grid,
		BatchSize:    b.Size,
		FreeChiplets: len(b.Free),
		MCMs:         len(out),
		ChipsUsed:    len(out) * chips,
		Leftover:     len(leftover),
		LinkedQubits: linked,
		ChipletYield: b.Yield(),
	}
	if b.Size > 0 {
		st.AssemblyYield = float64(st.ChipsUsed) / float64(b.Size)
	}
	st.PostAssemblyYield = st.AssemblyYield * BondSurvival(linked, cfg.BondFailureScale)
	return out, st, nil
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
