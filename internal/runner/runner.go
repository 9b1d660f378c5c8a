// Package runner is the deterministic fan-out engine behind every Monte
// Carlo and sweep loop in the repository (extracted from the ad-hoc
// goroutine code that first appeared in internal/yield).
//
// The determinism contract: a campaign of n independent trials is
// parameterised by one campaign seed, and trial i derives its private
// RNG stream from (seed, i) via Seed. Because a trial's inputs depend
// only on its index — never on which worker ran it or in what order —
// results are bit-identical for any worker count, including 1. Results
// are collected into index-ordered slices so downstream aggregation is
// order-stable too.
//
// The engine has two fan-outs over one claim loop, where workers claim
// indices from a shared atomic counter:
//
//   - Map runs coarse fallible units (a chiplet batch, a grid, a
//     campaign cell) and returns their results in index order, or the
//     lowest-index error.
//   - StreamPlanned runs Monte Carlo trials with per-worker scratch,
//     feeds each result to observe in index order, and asks stop at
//     fixed checkpoints whether the campaign can end early.
//
// Both are context-first: workers check for cancellation before
// claiming each index, so a cancelled context stops a campaign within
// one in-flight trial per worker, and every worker goroutine exits
// before the call returns (no leaks). A cancelled campaign returns
// ctx.Err() and discards partial results; a completed campaign's
// results are unaffected by the context.
//
// Worker counts <= 0 resolve to GOMAXPROCS, so the zero value of any
// Workers knob means "use the whole machine".
//
// The engine nests: campaign cells (internal/campaign) fan out on the
// same pool their inner Monte Carlo loops use, with Split dividing one
// worker budget between the two levels so total concurrency stays near
// the budget instead of compounding.
package runner

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Event is one progress observation of a running campaign, delivered to
// the Progress hooks threaded through the simulation configs. Done
// counts completed trials (or completed units for unit-level stages);
// Total is the campaign budget, 0 when unknown in advance.
//
// Progress callbacks may be invoked concurrently from worker
// goroutines; implementations must be safe for concurrent use.
type Event struct {
	// Label identifies the campaign, e.g. "fig8/fabricate" or a device
	// name like "mono-180q".
	Label string `json:"label"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// Workers resolves a worker-count knob against n schedulable trials:
// values <= 0 mean GOMAXPROCS, and the result is clamped to [1, n]
// (pass n < 0 to skip the upper clamp).
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n >= 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Seed derives trial i's private RNG stream seed from the campaign
// seed. SplitMix64-style mixing keeps streams decorrelated even for
// adjacent indices.
func Seed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// Rand returns trial i's private RNG stream. The stream is backed by a
// SplitMix64 source whose construction is O(1) — stdlib rand.NewSource
// pays a ~600-step table initialisation per call, which would dominate
// cheap Monte Carlo trials when every trial gets its own stream.
func Rand(seed int64, i int) *rand.Rand {
	return rand.New(&splitmix{state: uint64(Seed(seed, i))})
}

// splitmix is Vigna's SplitMix64 generator: a full-period 2^64 stream
// with O(1) seeding, used as the rand.Source64 behind every trial RNG.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// Split divides a worker budget between an outer fan-out over n units
// and the nested parallel loops inside each unit: outer gets the usual
// clamped resolution, inner gets the leftover factor so that total
// concurrency stays near the budget instead of compounding to
// workers^2 across nesting levels.
func Split(workers, n int) (outer, inner int) {
	outer = Workers(workers, n)
	inner = Workers(workers, -1) / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// watchCancel adapts a context to a poll function cheap enough for the
// per-trial claim loops: an atomic-flag load instead of ctx.Err()'s
// mutex. The returned stop function must be called (deferred) so the
// watcher goroutine exits with the campaign; until then it blocks on
// either the context or the campaign finishing, never both leaking.
// Contexts that can never be cancelled (Done() == nil) cost nothing.
func watchCancel(ctx context.Context) (cancelled func() bool, stop func()) {
	done := ctx.Done()
	if done == nil {
		return func() bool { return false }, func() {}
	}
	if ctx.Err() != nil {
		return func() bool { return true }, func() {}
	}
	var flag atomic.Bool
	quit := make(chan struct{})
	go func() {
		select {
		case <-done:
			flag.Store(true)
		case <-quit:
		}
	}()
	var once sync.Once
	return flag.Load, func() { once.Do(func() { close(quit) }) }
}

// Map runs fn over the units [0, n) across the given number of workers
// and returns the results in index order. Indices are claimed from a
// shared atomic counter, so uneven per-unit cost load-balances. Once the
// context is done or any unit fails, workers stop claiming new indices:
// the claim check reads the context itself, so no unit starts after a
// cancellation is visible. The error of the lowest failing index wins,
// so the outcome is deterministic regardless of scheduling; a cancelled
// campaign returns ctx.Err() and discards partial results.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return []T{}, ctx.Err()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		v   T
		err error
	}
	res := make([]result, n)
	runBlock(make([]struct{}, Workers(workers, n)), 0, n, res,
		func(_ struct{}, i int) result {
			v, err := fn(i)
			if err != nil {
				cancel()
			}
			return result{v, err}
		},
		func() bool { return cctx.Err() != nil })
	out := make([]T, n)
	for i, r := range res {
		if r.err != nil {
			return nil, r.err
		}
		out[i] = r.v
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// runBlock is the claim loop behind both fan-outs: it evaluates trials
// [lo, hi) across the locals' workers, writing trial i's result to
// out[i-lo]. Indices are claimed from a shared atomic counter so uneven
// per-trial cost load-balances; workers poll stopped before each claim.
func runBlock[L, T any](locals []L, lo, hi int, out []T, trial func(l L, i int) T, stopped func() bool) {
	n := hi - lo
	if len(locals) == 1 || n == 1 {
		for j := 0; j < n; j++ {
			if stopped() {
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
			for !stopped() {
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
