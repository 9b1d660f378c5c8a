package runner

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// TrialRNG is a reusable per-worker trial RNG: At repositions it onto
// trial i's private (seed, i)-derived SplitMix64 stream without
// allocating. Its NormFloat64 and Float64 are exact copies of math/rand
// v1's, reading the SplitMix64 state directly instead of through the
// rand.Source interface, so every draw is bit-identical to the same
// call on Rand(seed, i); Rand exposes a *rand.Rand on the same state
// for code that takes one. Workers keep one TrialRNG in their local
// scratch so the Monte Carlo hot path allocates nothing per trial.
type TrialRNG struct {
	src splitmix
	r   *rand.Rand
	// Pad to 128 B so no two workers' SplitMix states share a cache line.
	_ [112]byte
}

// NewTrialRNG returns a reusable trial RNG (two allocations, paid once
// per worker instead of once per trial).
func NewTrialRNG() *TrialRNG {
	t := &TrialRNG{}
	t.r = rand.New(&t.src)
	return t
}

// At repositions the RNG onto trial i's stream and returns it.
func (t *TrialRNG) At(seed int64, i int) *TrialRNG {
	t.src.state = uint64(Seed(seed, i))
	return t
}

// Rand returns a *rand.Rand drawing from the same stream position:
// draws through it and through t interleave as one sequence.
func (t *TrialRNG) Rand() *rand.Rand { return t.r }

// Float64 returns rand.Rand.Float64's draw on this stream: a uniform
// value in [0, 1).
func (t *TrialRNG) Float64() float64 {
	for {
		// An Int63 that rounds up to 1 is redrawn, as math/rand does.
		if f := float64(t.src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// NormFloat64 returns rand.Rand.NormFloat64's draw on this stream: a
// standard normal variate from the Marsaglia-Tsang ziggurat. Over 99%
// of draws take the one-comparison fast path here; the rest finish in
// normSlow.
func (t *TrialRNG) NormFloat64() float64 {
	// rand.Rand.Uint32 is Int63() >> 31: the top 32 bits of the output.
	j := int32(t.src.Uint64() >> 32)
	i := j & 0x7F
	if absInt32(j) < kn[i] {
		return float64(j) * float64(wn[i])
	}
	return t.normSlow(j)
}

// normSlow finishes a NormFloat64 draw whose sample j missed its
// ziggurat rectangle: the base strip's tail or a wedge test, then the
// full loop on fresh samples, exactly as math/rand runs it.
func (t *TrialRNG) normSlow(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(t.Float64()) * (1.0 / rn)
				y := -math.Log(t.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(t.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(t.src.Uint64() >> 32)
	}
}

// Normal is stats.Normal on this stream: mu when sigma is 0, with no
// draw, else mu + sigma*NormFloat64().
func (t *TrialRNG) Normal(mu, sigma float64) float64 {
	if sigma == 0 {
		return mu
	}
	return mu + sigma*t.NormFloat64()
}

// Scratch is the standard per-worker Monte Carlo scratch state: a
// reusable trial RNG plus a float64 sample buffer, so the per-trial
// path allocates nothing.
type Scratch struct {
	RNG *TrialRNG
	Buf []float64
}

// NewScratch returns a newLocal constructor for MapLocal and StreamPlanned
// that equips each worker with a TrialRNG and an n-element buffer.
func NewScratch(n int) func() Scratch {
	return func() Scratch {
		return Scratch{RNG: NewTrialRNG(), Buf: make([]float64, n)}
	}
}

// Checkpoints returns the fixed trial counts at which a streaming
// campaign may stop: a doubling ladder from min up to max, always
// ending exactly at max. Stop decisions happen only at these counts,
// which is what keeps adaptive results worker-count invariant.
func Checkpoints(min, max int) []int {
	if max <= 0 {
		return nil
	}
	if min <= 0 {
		min = 1
	}
	var out []int
	for c := min; c < max; c *= 2 {
		out = append(out, c)
	}
	return append(out, max)
}

// StreamPlanned is the streaming fan-out mode: it runs up to max
// trials in checkpoint-delimited blocks, feeds every trial's
// observation to an aggregator in trial-index order, and asks stop
// after each checkpoint whether the campaign can end early. It returns
// the number of trials executed.
//
// The determinism contract extends MapLocal's: trial i's result must
// depend only on i (locals are scratch), blocks always run to their
// checkpoint before any stop decision, and observe sees results in
// index order — so the executed trial count and every aggregate are
// bit-identical at any worker count. Checkpoints are clamped to
// (0, max] and deduplicated; a final checkpoint at max is implied.
//
// When plan is non-nil it is called with the half-open trial range
// [lo, hi) of each upcoming block before any worker starts it, on the
// coordinating goroutine, never concurrently with trial, so any
// per-block assignment it freezes is a pure function of the trial
// index and the checkpoint grid.
//
// A cancelled context stops the campaign within one in-flight trial per
// worker and returns ctx.Err(); observations already delivered to the
// aggregator before cancellation stay delivered, but the partial
// campaign must be discarded by the caller.
func StreamPlanned[L, T any](ctx context.Context, max, workers int, checkpoints []int, newLocal func() L,
	plan func(lo, hi int), trial func(l L, i int) T, observe func(i int, v T), stop func(trials int) bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if max <= 0 {
		return 0, nil
	}
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()
	workers = Workers(workers, max)
	locals := make([]L, workers)
	for i := range locals {
		locals[i] = newLocal()
	}

	var buf []T
	done := 0
	step := func(cp int) bool {
		if cp > max {
			cp = max
		}
		if cp <= done {
			return false
		}
		n := cp - done
		if cap(buf) < n {
			buf = make([]T, n)
		}
		buf = buf[:n]
		if plan != nil {
			plan(done, cp)
		}
		runBlock(locals, done, cp, buf, trial, cancelled)
		// ctx.Err() directly, not the async watcher flag: a
		// cancellation observed synchronously by a nested call inside
		// trial could race the flag and let a block of zero-valued
		// results reach the aggregator as if valid.
		if ctx.Err() != nil {
			return true
		}
		for j := 0; j < n; j++ {
			observe(done+j, buf[j])
		}
		done = cp
		return done >= max || stop(done)
	}
	for _, cp := range checkpoints {
		if step(cp) {
			return done, ctx.Err()
		}
	}
	step(max)
	return done, ctx.Err()
}

// runBlock evaluates trials [lo, hi) across the locals' workers,
// writing trial i's result to out[i-lo]. Indices are claimed from a
// shared atomic counter so uneven per-trial cost load-balances;
// workers poll the cancellation flag before each claim.
func runBlock[L, T any](locals []L, lo, hi int, out []T, trial func(l L, i int) T, cancelled func() bool) {
	n := hi - lo
	if len(locals) == 1 || n == 1 {
		for j := 0; j < n; j++ {
			if cancelled() {
				return
			}
			out[j] = trial(locals[0], lo+j)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < len(locals); w++ {
		wg.Add(1)
		go func(l L) {
			defer wg.Done()
			for !cancelled() {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				out[j] = trial(l, lo+j)
			}
		}(locals[w])
	}
	wg.Wait()
}
