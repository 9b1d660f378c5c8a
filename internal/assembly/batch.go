package assembly

import (
	"cmp"
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
// first by average two-qubit error.
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
// the KGD pipeline of Section V-B/VII-B (see Survivors) and sorts the
// collision-free bin best-first. Cancelling ctx aborts fabrication
// within one in-flight die per worker and returns ctx.Err().
func Fabricate(ctx context.Context, spec topo.ChipSpec, size int, cfg BatchConfig) (*Batch, error) {
	chip := topo.BuildChip(spec)
	free, err := Survivors(ctx, chip, size, 0, cfg, newChiplet)
	if err != nil {
		return nil, err
	}
	// Free is in ascending ID order, so ordering ties by ID is the
	// stable sort by AvgErr, without reflection.
	slices.SortFunc(free, func(x, y *Chiplet) int {
		if c := cmp.Compare(x.AvgErr, y.AvgErr); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	params := cfg.Params
	return &Batch{Spec: spec, Chip: chip, Size: size, Free: free, kgd: &params}, nil
}

// newChiplet is Fabricate's keep: it retains a survivor's vectors in
// one allocation, each capped so neither can append into the other.
func newChiplet(id int, freq, errs []float64, avg float64) *Chiplet {
	n := len(freq)
	vec := make([]float64, n+len(errs))
	copy(vec, freq)
	copy(vec[n:], errs)
	return &Chiplet{ID: id, Freq: vec[:n:n], EdgeErr: vec[n:], AvgErr: avg}
}

// Survivors runs the KGD die trial on a batch of `size` dies of chip
// and returns, in die order, what keep retains of each survivor. Each
// die samples its frequencies, is discarded at its first Table I
// collision, and otherwise gets one error per coupling from the
// detuning model, in chip.G.Edges() order. keep sees the die's index,
// frequencies, errors and their mean in worker scratch that the next
// die overwrites, so it copies what it retains. With want > 0 only the
// first `want` survivors are kept, and the batch stops at the first
// checkpoint of a worker-sized grid that has found them all; with
// want <= 0 every die runs. Each die derives its RNG stream from
// (Seed, die index), so the survivors are identical at any worker
// count. A negative size is an error. Cancelling ctx aborts within one
// in-flight die per worker and returns ctx.Err().
func Survivors[T any](ctx context.Context, chip *topo.Chip, size, want int, cfg BatchConfig,
	keep func(id int, freq, errs []float64, avg float64) T) ([]T, error) {
	if size < 0 {
		return nil, fmt.Errorf("assembly: negative batch size %d", size)
	}
	dev := chip.Device()
	checker := collision.NewChecker(dev, cfg.Params)
	edges := chip.G.Edges()
	mu := cfg.Fab.Targets(dev)
	var checkpoints []int
	if want > 0 {
		chunk := runner.Workers(cfg.Workers, size) * 32
		for cp := chunk; cp < size; cp += chunk {
			checkpoints = append(checkpoints, cp)
		}
	}

	// Workers reuse one RNG and one buffer for a die's frequencies and
	// errors, so a discarded die costs zero allocations and stops
	// drawing at its first collision; only keep allocates.
	var out []T
	_, err := runner.StreamPlanned(ctx, size, cfg.Workers, checkpoints, runner.NewScratch(chip.N+len(edges)), nil,
		func(l runner.Scratch, i int) survivor[T] {
			r := l.RNG.At(cfg.Seed, i)
			f, errs := l.Buf[:chip.N], l.Buf[chip.N:]
			if !checker.SampleFree(r, mu, cfg.Fab.Sigma, f) {
				return survivor[T]{}
			}
			var sum float64
			for j, e := range edges {
				errs[j] = cfg.Det.Sample(r.Rand(), f[e.U]-f[e.V])
				sum += errs[j]
			}
			avg := 0.0
			if len(edges) > 0 {
				avg = sum / float64(len(edges))
			}
			return survivor[T]{keep(i, f, errs, avg), true}
		},
		func(_ int, s survivor[T]) {
			if s.ok && (want <= 0 || len(out) < want) {
				out = append(out, s.v)
			}
		},
		func(int) bool { return want > 0 && len(out) == want })
	if err != nil {
		return nil, err
	}
	return out, nil
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
