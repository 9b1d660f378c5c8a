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
// Every campaign entry point is context-first: workers poll a shared
// cancellation flag before claiming each trial index, so a cancelled
// context stops a campaign within one in-flight trial per worker, and
// every worker goroutine exits before the call returns (no leaks). A
// cancelled campaign returns ctx.Err() and discards partial results;
// a completed campaign's results are unaffected by the context.
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

// Map runs fn over [0, n) across the given number of workers and
// returns the results in index order. Indices are claimed from a shared
// atomic counter so uneven per-trial cost load-balances automatically.
// A cancelled context stops the campaign within one in-flight trial per
// worker and returns ctx.Err().
func Map[T any](ctx context.Context, n, workers int, fn func(i int) T) ([]T, error) {
	return MapLocal(ctx, n, workers, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return fn(i) })
}

// MapLocal is Map with per-worker local state: newLocal runs once per
// worker and its value (typically a scratch buffer) is passed to every
// fn call that worker executes. fn must derive its result from i alone —
// the local is scratch, not input — to preserve the determinism
// contract.
func MapLocal[L, T any](ctx context.Context, n, workers int, newLocal func() L, fn func(l L, i int) T) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]T, n)
	if n <= 0 {
		return out, nil
	}
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()
	workers = Workers(workers, n)
	if workers == 1 {
		l := newLocal()
		for i := 0; i < n; i++ {
			if cancelled() {
				return nil, ctx.Err()
			}
			out[i] = fn(l, i)
		}
		// ctx.Err() directly, not the flag: the watcher sets the flag
		// asynchronously, so a cancellation observed by a nested call
		// (whose dropped error left a zero result in out) could race
		// the flag and leak a nil-error partial result to the caller.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := newLocal()
			for !cancelled() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(l, i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MapErr is Map for fallible trials with cooperative cancellation: once
// the context is done or any trial fails, workers stop claiming new
// indices. The error of the lowest failing index wins, so the outcome is
// deterministic regardless of scheduling; on success the full
// index-ordered result slice is returned.
func MapErr[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n <= 0 {
		return out, ctx.Err()
	}
	errs := make([]error, n)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers = Workers(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
