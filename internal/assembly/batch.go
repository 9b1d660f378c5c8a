package assembly

import (
	"context"
	"fmt"
	"math"
	"slices"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/graph"
	"chipletqc/internal/noise"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// Chiplet is one fabricated, characterised, collision-free die from a
// batch. Edge errors are aligned with the chip topology's G.Edges()
// order; AvgErr is the KGD figure used to rank chiplets for stitching.
type Chiplet struct {
	ID      int
	Freq    []float64
	EdgeErr []float64
	AvgErr  float64
}

// Batch is a fabrication run of identical chiplets: only the collision-
// free dies are retained (KGD testing discards the rest), sorted best
// first by average two-qubit error. Fabricate stores the bin's chiplets
// and vectors in chunks that many dies share, so a Chiplet's Freq and
// EdgeErr are capacity-capped: an append reallocates rather than
// writing into another die.
type Batch struct {
	Spec topo.ChipSpec
	Chip *topo.Chip
	Size int        // dies fabricated
	Free []*Chiplet // collision-free bin, ascending AvgErr

	// kgd holds the Table I params the KGD test screened every die in
	// Free against; nil for a batch that Fabricate did not build.
	kgd *collision.Params
}

// Yield returns the collision-free chiplet yield of the batch.
func (b *Batch) Yield() float64 {
	if b.Size == 0 {
		return 0
	}
	return float64(len(b.Free)) / float64(b.Size)
}

// BatchConfig parameterises chiplet fabrication and characterisation.
type BatchConfig struct {
	Fab    fab.Model
	Params collision.Params
	Det    *noise.DetuningModel
	Seed   int64
	// Workers fans die fabrication out across goroutines; <= 0 means
	// GOMAXPROCS. Each die derives its RNG stream from (Seed, die index),
	// so the batch is identical at any worker count.
	Workers int
}

// Fabricate runs a batch of `size` chiplets of the given spec through
// the KGD pipeline of Section V-B/VII-B (see Survivors), retains every
// survivor and sorts the collision-free bin best-first. Its callers read
// the whole bin: Fig. 8 drains it, Fig. 9 pulls one module per
// monolithic survivor (up to a third of the bin), and mcmsim and the
// facade assemble everything. For them a retained die is cheaper than
// TakeBest's rebuild, which would run every die trial twice. A caller
// that wants only the best few modules calls TakeBest, which retains no
// bin. Cancelling ctx aborts fabrication within one in-flight die per
// worker and returns ctx.Err().
func Fabricate(ctx context.Context, spec topo.ChipSpec, size int, cfg BatchConfig) (*Batch, error) {
	chip := topo.BuildChip(spec)
	free, err := Survivors(ctx, chip, size, 0, cfg, (*Die).Retain)
	if err != nil {
		return nil, err
	}
	sortBin(free)
	params := cfg.Params
	return &Batch{Spec: spec, Chip: chip, Size: size, Free: free, kgd: &params}, nil
}

// sortBin orders the bin best-first, as cmp.Compare on (AvgErr, ID)
// orders it for every float64. The bin arrives in ascending ID order,
// so a stable sort on AvgErr alone gives that order: an LSD radix sort
// on orderKey, one counting pass per byte, skipping any byte that every
// key shares. The passes move keys and int32 bin positions, which hold
// no pointer, so they run without GC write barriers.
func sortBin(free []*Chiplet) {
	n := len(free)
	if n < 2 {
		return
	}
	keys, pos := make([]uint64, 2*n), make([]int32, 2*n)
	src, srcPos, dst, dstPos := keys[:n], pos[:n], keys[n:], pos[n:]
	var count [8][256]int
	for i, c := range free {
		k := orderKey(c.AvgErr)
		src[i], srcPos[i] = k, int32(i)
		for b := range count {
			count[b][byte(k>>(8*b))]++
		}
	}
	for b := range count {
		next := &count[b]
		if next[byte(src[0]>>(8*b))] == n {
			continue
		}
		at := 0
		for d, c := range next {
			next[d] = at
			at += c
		}
		for i, k := range src {
			d := byte(k >> (8 * b))
			dst[next[d]], dstPos[next[d]] = k, srcPos[i]
			next[d]++
		}
		src, srcPos, dst, dstPos = dst, dstPos, src, srcPos
	}
	unsorted := slices.Clone(free)
	for i, p := range srcPos {
		free[i] = unsorted[p]
	}
}

// orderKey maps x to a key whose unsigned order is cmp.Compare's order
// on float64: every NaN first and equal, then -Inf up to +Inf, with -0
// equal to +0.
func orderKey(x float64) uint64 {
	if x != x {
		return 0
	}
	if x == 0 {
		x = 0 // -0 sorts as +0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Die is a KGD survivor as Survivors' keep sees it. Its Freq and
// EdgeErr live in worker scratch that the next die overwrites, so keep
// copies what it retains and must not retain the Die itself.
type Die struct {
	Chiplet
	w *dieWorker
}

// dieWorker runs the die trial: it holds its own copy of the trial, its
// trial RNG, the die it reuses for every trial, the number of survivors
// it has found, and the unused tails of the chunks that Retain fills.
type dieWorker struct {
	trial dieTrial
	rng   *runner.TrialRNG
	die   Die
	found int
	chips []Chiplet
	vecs  []float64
}

// chunkBytes bounds each chunk Retain allocates, so that it stays a
// small object: the runtime serves those from warm per-size spans,
// while a larger chunk takes fresh pages that it must fault in and
// zero. A chunk of k dies holds k Chiplets (64 B, the size of 8
// float64s) and k(n+m) float64s.
const chunkBytes = 16 << 10

// Retain copies the die into chunks its worker owns and returns the
// copy, so a retained die costs no allocation of its own. The copy's
// Freq and EdgeErr are capacity-capped windows of one chunk.
func (d *Die) Retain() *Chiplet {
	w, n, m := d.w, len(d.Freq), len(d.EdgeErr)
	if len(w.chips) == 0 {
		k := max(chunkBytes/(8*max(n+m, 8)), 1)
		w.chips = make([]Chiplet, k)
		w.vecs = make([]float64, k*(n+m))
	}
	out := &w.chips[0]
	vec := w.vecs[: n+m : n+m]
	w.chips, w.vecs = w.chips[1:], w.vecs[n+m:]
	copy(vec, d.Freq)
	copy(vec[n:], d.EdgeErr)
	*out = Chiplet{ID: d.ID, Freq: vec[:n:n], EdgeErr: vec[n:], AvgErr: d.AvgErr}
	return out
}

// Survivors runs the KGD die trial (see dieTrial) on a batch of `size`
// dies of chip and returns, in die order, what keep retains of each
// survivor. keep sees the die in worker scratch (see Die), so it copies
// what it retains: Fabricate retains the whole die with Die.Retain,
// TakeBest a rank key, and the Fig. 1/6/9/10 callers keep only a mean,
// nothing or a table. With want > 0 only the first `want` survivors are
// kept, and the batch stops at the first checkpoint of a worker-sized
// grid that has found them all; with want <= 0 every die runs. Each die
// derives its RNG stream from (Seed, die index), so the survivors are
// identical at any worker count. A negative size is an error.
// Cancelling ctx aborts within one in-flight die per worker and returns
// ctx.Err().
func Survivors[T any](ctx context.Context, chip *topo.Chip, size, want int, cfg BatchConfig,
	keep func(d *Die) T) ([]T, error) {
	return survivors(ctx, newDieTrial(chip, cfg), size, want, cfg.Workers, keep)
}

// survivors is Survivors on a compiled die trial.
func survivors[T any](ctx context.Context, trial dieTrial, size, want, workerCount int,
	keep func(d *Die) T) ([]T, error) {
	if size < 0 {
		return nil, fmt.Errorf("assembly: negative batch size %d", size)
	}
	var checkpoints []int
	if want > 0 {
		chunk := runner.Workers(workerCount, size) * 32
		for cp := chunk; cp < size; cp += chunk {
			checkpoints = append(checkpoints, cp)
		}
	}

	var workers []*dieWorker
	newWorker := func() *dieWorker {
		w := trial.newWorker()
		workers = append(workers, w)
		return w
	}
	var out []T
	_, err := runner.StreamPlanned(ctx, size, workerCount, checkpoints, newWorker, nil,
		func(w *dieWorker, i int) survivor[T] {
			if !w.run(i) {
				return survivor[T]{}
			}
			w.found++
			return survivor[T]{keep(&w.die), true}
		},
		func(_ int, s survivor[T]) {
			if !s.ok || (want > 0 && len(out) >= want) {
				return
			}
			if out == nil {
				// observe runs once a block's trials have all returned,
				// so the workers' counts size out: exactly when
				// want <= 0, which runs every die in one block.
				n := 0
				for _, w := range workers {
					n += w.found
				}
				if want > 0 {
					n = min(n, want)
				}
				out = make([]T, 0, n)
			}
			out = append(out, s.v)
		},
		func(int) bool { return want > 0 && len(out) == want })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dieTrial is the KGD die trial of one batch (Section V-B/VII-B), the
// one body that both Survivors' loop and TakeBest's rebuild run. A die
// samples its frequencies, is discarded at its first Table I collision,
// and otherwise gets one error per coupling from the detuning model, in
// chip.G.Edges() order, all on the die's trial RNG. It is small enough
// for a closure to hold by value, so compiling it costs no allocation
// of its own, and each worker runs its own copy.
type dieTrial struct {
	checker *collision.Checker
	edges   []graph.Edge
	mu      []float64 // target frequency per qubit
	sigma   float64
	det     *noise.DetuningModel
	seed    int64
	qubits  int
}

func newDieTrial(chip *topo.Chip, cfg BatchConfig) dieTrial {
	dev := chip.Device()
	return dieTrial{
		checker: collision.NewChecker(dev, cfg.Params),
		edges:   chip.G.Edges(),
		mu:      cfg.Fab.Targets(dev),
		sigma:   cfg.Fab.Sigma,
		det:     cfg.Det,
		seed:    cfg.Seed,
		qubits:  chip.N,
	}
}

// newWorker returns a worker for the trial. Its RNG and die are reused
// for every die it runs, so a discarded die costs zero allocations and
// stops drawing at its first collision.
func (t dieTrial) newWorker() *dieWorker {
	n := t.qubits
	w := &dieWorker{trial: t, rng: runner.NewTrialRNG()}
	buf := make([]float64, n+len(t.edges))
	w.die = Die{Chiplet: Chiplet{Freq: buf[:n:n], EdgeErr: buf[n:]}, w: w}
	return w
}

// run runs die i of the batch into w.die and reports whether it
// survived KGD. A survivor's Freq, EdgeErr, ID and AvgErr are all set;
// a discarded die stops at its first collision and leaves w.die stale.
func (w *dieWorker) run(i int) bool {
	t := &w.trial
	r := w.rng.At(t.seed, i)
	d := &w.die
	if !t.checker.SampleFree(r, t.mu, t.sigma, d.Freq) {
		return false
	}
	var sum float64
	for j, e := range t.edges {
		d.EdgeErr[j] = t.det.Sample(r, d.Freq[e.U]-d.Freq[e.V])
		sum += d.EdgeErr[j]
	}
	d.ID, d.AvgErr = i, 0
	if len(t.edges) > 0 {
		d.AvgErr = sum / float64(len(t.edges))
	}
	return true
}

// survivor is one die's outcome in Survivors: ok marks a KGD survivor
// and v is what keep retained of it.
type survivor[T any] struct {
	v  T
	ok bool
}

// Bump-bond assembly constants (Section VII-B): the per-bump success
// probability derived from silicon interposer defect rates, and the
// number of C4 bumps each inter-chip linked qubit requires.
const (
	BumpSuccess       = 0.99999960642
	BumpsPerLinkQubit = 25
)

// LinkQubitSurvival returns the probability that one linked qubit's 25
// bump bonds all succeed, with the bump failure probability scaled by
// failureScale (1 = nominal; 100 = the paper's sensitivity analysis).
func LinkQubitSurvival(failureScale float64) float64 {
	fail := (1 - BumpSuccess) * failureScale
	if fail < 0 {
		fail = 0
	}
	if fail > 1 {
		fail = 1
	}
	return math.Pow(1-fail, BumpsPerLinkQubit)
}

// BondSurvival returns the probability that an assembly with L linked
// qubits suffers no bonding fault: (s_l^25)^L with scaled failure.
func BondSurvival(linkedQubits int, failureScale float64) float64 {
	return math.Pow(LinkQubitSurvival(failureScale), float64(linkedQubits))
}

// Combinatorics helpers for Fig. 6.

// Log10Configurations returns log10 of the number of ordered ways to
// populate an MCM of `chips` positions from `free` distinct chiplets:
// log10(free! / (free-chips)!). It returns -Inf when free < chips.
func Log10Configurations(free, chips int) float64 {
	if free < chips {
		return math.Inf(-1)
	}
	var sum float64
	for i := 0; i < chips; i++ {
		sum += math.Log10(float64(free - i))
	}
	return sum
}

// MaxAssemblies returns the largest number of disjoint MCMs of `chips`
// positions buildable from `free` chiplets.
func MaxAssemblies(free, chips int) int {
	if chips <= 0 {
		return 0
	}
	return free / chips
}

// FabricationOutput evaluates Equation 1 of the paper: the upper bound on
// assembled MCMs given monolithic batch size B, monolithic size qm,
// chiplet size qc, chiplet yield Yc, and MCM dimension k x m:
//
//	N = Yc * (B * qm/qc) / (k*m)
func FabricationOutput(yc float64, batch, qm, qc, chips int) float64 {
	if qc <= 0 || chips <= 0 {
		return 0
	}
	return yc * float64(batch) * float64(qm) / float64(qc) / float64(chips)
}

// globalEdge maps a chip-local coupling to its global device edge for a
// chip placed at a base qubit offset.
func globalEdge(base int, e graph.Edge) graph.Edge {
	return graph.NewEdge(base+e.U, base+e.V)
}
