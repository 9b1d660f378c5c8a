package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// bg is the no-cancellation context used by the determinism tests.
var bg = context.Background()

func TestWorkersResolution(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, n, want int
	}{
		{0, 100, min(procs, 100)},
		{-3, 100, min(procs, 100)},
		{4, 100, 4},
		{8, 3, 3},
		{8, 0, 1},
		{5, -1, 5},
		{0, -1, procs},
	}
	for _, c := range cases {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestSeedDecorrelatesAdjacentIndices(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := Seed(42, i)
		if s < 0 {
			t.Fatalf("Seed(42, %d) = %d, want non-negative", i, s)
		}
		if seen[s] {
			t.Fatalf("Seed(42, %d) collides with an earlier index", i)
		}
		seen[s] = true
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Error("different campaign seeds should derive different streams")
	}
}

func TestMapOrderedAndComplete(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Map(bg, 100, workers, func(i int) int { return i * i })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if out, err := Map(bg, 0, 4, func(i int) int { return i }); err != nil || len(out) != 0 {
		t.Errorf("empty campaign returned %d results, err %v", len(out), err)
	}
}

// TestMapWorkerCountInvariance is the core determinism contract: trials
// drawing from their (seed, index) streams produce identical results at
// any worker count.
func TestMapWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := MapLocal(bg, 500, workers,
			func() []float64 { return make([]float64, 8) },
			func(buf []float64, i int) float64 {
				r := Rand(99, i)
				var sum float64
				for j := range buf {
					buf[j] = r.NormFloat64()
					sum += buf[j]
				}
				return sum
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 5, 16} {
		if got := run(workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
	}
}

func TestMapLocalAllocatesPerWorker(t *testing.T) {
	var allocs atomic.Int64
	if _, err := MapLocal(bg, 50, 4, func() int { allocs.Add(1); return 0 },
		func(int, int) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	if n := allocs.Load(); n < 1 || n > 4 {
		t.Errorf("newLocal ran %d times, want 1..4", n)
	}
}

func TestSplitKeepsTotalNearBudget(t *testing.T) {
	cases := []struct {
		workers, n int
	}{
		{8, 2},   // 2 outer units leave a 4x inner budget
		{8, 8},   // enough outer units: inner stays serial
		{8, 100}, // more units than workers
		{1, 10},  // an explicit serial budget stays serial inside too
	}
	for _, c := range cases {
		outer, inner := Split(c.workers, c.n)
		if outer != min(c.workers, c.n) && c.workers > 0 {
			t.Errorf("Split(%d, %d) outer = %d", c.workers, c.n, outer)
		}
		if c.workers > 1 && outer*inner > c.workers {
			t.Errorf("Split(%d, %d) = (%d, %d): product exceeds budget",
				c.workers, c.n, outer, inner)
		}
		if inner < 1 {
			t.Errorf("Split(%d, %d) inner = %d, want >= 1", c.workers, c.n, inner)
		}
	}
}

func TestMapErrSuccess(t *testing.T) {
	out, err := MapErr(bg, 50, 4, func(i int) (int, error) {
		return i + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapErrLowestIndexErrorWins(t *testing.T) {
	sentinel := errors.New("trial 13 failed")
	for _, workers := range []int{1, 8} {
		_, err := MapErr(bg, 100, workers, func(i int) (int, error) {
			if i >= 13 {
				return 0, fmt.Errorf("trial %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != sentinel.Error() {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, sentinel)
		}
	}
}

func TestMapErrContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := MapErr(ctx, 1_000_000, 2, func(i int) (int, error) {
		if ran.Add(1) == 10 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Error("cancellation did not stop the campaign early")
	}
}

func noLocal() struct{} { return struct{}{} }

// TestPreCancelledContextShortCircuits: a context cancelled before the
// call must return ctx.Err() without running a single trial.
func TestPreCancelledContextShortCircuits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	trial := func(_ struct{}, i int) int { ran.Add(1); return i }

	if _, err := MapLocal(ctx, 100, 4, noLocal, trial); !errors.Is(err, context.Canceled) {
		t.Errorf("MapLocal err = %v, want context.Canceled", err)
	}
	if _, err := StreamPlanned(ctx, 100, 4, nil, noLocal, nil, trial, func(int, int) {},
		func(int) bool { return false }); !errors.Is(err, context.Canceled) {
		t.Errorf("StreamPlanned err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d trials ran under a pre-cancelled context", n)
	}
}

// TestMidRunCancellationStopsPromptly: cancelling mid-campaign must
// return context.Canceled well before the trial budget is spent.
func TestMidRunCancellationStopsPromptly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		_, err := MapLocal(ctx, 1_000_000, workers, noLocal,
			func(_ struct{}, i int) int {
				if ran.Add(1) == 100 {
					cancel()
				}
				time.Sleep(10 * time.Microsecond)
				return i
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1_000_000 {
			t.Errorf("workers=%d: cancellation did not stop the campaign early", workers)
		}
		cancel()
	}
}

// TestStreamMidRunCancellation: a StreamPlanned campaign cancelled mid-block
// returns ctx.Err() without reaching the trial budget.
func TestStreamMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := StreamPlanned(ctx, 1_000_000, 4, Checkpoints(250, 1_000_000), noLocal, nil,
		func(_ struct{}, i int) int {
			if ran.Add(1) == 100 {
				cancel()
			}
			return i
		},
		func(int, int) {}, func(int) bool { return false })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Error("cancellation did not stop the stream early")
	}
}

// waitForGoroutineBaseline polls until the goroutine count settles back
// to (near) the pre-campaign baseline; it is the goleak-style check for
// the cancellation paths: the watcher and every worker must have
// exited once a campaign returns.
func waitForGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancellationLeaksNoGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		_, err := MapLocal(ctx, 100_000, 8, noLocal,
			func(_ struct{}, i int) int {
				if ran.Add(1) == 50 {
					cancel()
				}
				return i
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iter %d: err = %v", iter, err)
		}
		cancel()
	}
	waitForGoroutineBaseline(t, base)
}

// TestCompletedCampaignLeaksNoGoroutines covers the success path: the
// cancel watcher must exit when the campaign completes normally even
// though the context is never cancelled.
func TestCompletedCampaignLeaksNoGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for iter := 0; iter < 50; iter++ {
		if _, err := Map(ctx, 100, 8, func(i int) int { return i }); err != nil {
			t.Fatal(err)
		}
	}
	waitForGoroutineBaseline(t, base)
}

// TestSeedMatchesLegacyYieldDerivation pins the mixing function to the
// seed repository's yield.deviceSeed so historical results stay
// reproducible after the extraction into this package.
func TestSeedMatchesLegacyYieldDerivation(t *testing.T) {
	legacy := func(seed int64, i int) int64 {
		z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		return int64(z & 0x7FFFFFFFFFFFFFFF)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		seed, idx := r.Int63(), r.Intn(1<<20)
		if Seed(seed, idx) != legacy(seed, idx) {
			t.Fatalf("Seed(%d, %d) diverged from legacy derivation", seed, idx)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
