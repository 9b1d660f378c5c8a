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
		got, err := Map(bg, 100, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if out, err := Map(bg, 0, 4, func(i int) (int, error) { return i, nil }); err != nil || len(out) != 0 {
		t.Errorf("empty campaign returned %d results, err %v", len(out), err)
	}
}

// collect runs trial over [0, n) through StreamPlanned in one block and
// returns the observations in the order observe received them.
func collect[L, T any](ctx context.Context, n, workers int, newLocal func() L, trial func(L, int) T) ([]T, error) {
	var out []T
	_, err := StreamPlanned(ctx, n, workers, nil, newLocal, nil, trial,
		func(_ int, v T) { out = append(out, v) }, func(int) bool { return false })
	return out, err
}

// TestMapWorkerCountInvariance is the core determinism contract: trials
// drawing from their (seed, index) streams into per-worker scratch
// produce identical results at any worker count.
func TestMapWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := collect(bg, 500, workers, NewScratch(8),
			func(l Scratch, i int) float64 {
				r := l.RNG.At(99, i)
				var sum float64
				for j := range l.Buf {
					l.Buf[j] = r.NormFloat64()
					sum += l.Buf[j]
				}
				return sum
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	if len(serial) != 500 {
		t.Fatalf("serial run observed %d trials, want 500", len(serial))
	}
	for _, workers := range []int{2, 5, 16} {
		if got := run(workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
	}
}

func TestStreamLocalAllocatesPerWorker(t *testing.T) {
	var allocs atomic.Int64
	if _, err := collect(bg, 50, 4, func() int { allocs.Add(1); return 0 },
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

// TestMapErrSuccess: a campaign of units that all succeed returns every
// result in index order and a nil error.
func TestMapErrSuccess(t *testing.T) {
	out, err := Map(bg, 50, 4, func(i int) (int, error) {
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
		_, err := Map(bg, 100, workers, func(i int) (int, error) {
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
	_, err := Map(ctx, 1_000_000, 2, func(i int) (int, error) {
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

// TestMapStartsNoUnitAfterCancel: Map's claim check reads the context
// itself, so a cancellation made inside a unit is visible before the
// next claim. A unit started after it could fold the cancellation into
// its own error, which would then win over context.Canceled.
func TestMapStartsNoUnitAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Map(ctx, 2, 1, func(i int) (int, error) {
		if i == 0 {
			cancel()
			return 0, nil
		}
		t.Errorf("unit %d started after the context was cancelled", i)
		return 0, fmt.Errorf("unit %d: %v", i, ctx.Err())
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func noLocal() struct{} { return struct{}{} }

// fanOut names one entry point run over [0, n) with a per-index trial.
type fanOut struct {
	name string
	run  func(ctx context.Context, n, workers int, trial func(i int) int) error
}

// fanOuts covers both entry points: Map, and StreamPlanned on a
// checkpoint grid.
var fanOuts = []fanOut{
	{"Map", func(ctx context.Context, n, workers int, trial func(int) int) error {
		_, err := Map(ctx, n, workers, func(i int) (int, error) { return trial(i), nil })
		return err
	}},
	{"StreamPlanned", func(ctx context.Context, n, workers int, trial func(int) int) error {
		_, err := StreamPlanned(ctx, n, workers, Checkpoints(250, n), noLocal, nil,
			func(_ struct{}, i int) int { return trial(i) }, func(int, int) {},
			func(int) bool { return false })
		return err
	}},
}

// TestPreCancelledContextShortCircuits: a context cancelled before the
// call must return ctx.Err() without running a single trial.
func TestPreCancelledContextShortCircuits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, f := range fanOuts {
		var ran atomic.Int64
		err := f.run(ctx, 100, 4, func(i int) int { ran.Add(1); return i })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s err = %v, want context.Canceled", f.name, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("%s: %d trials ran under a pre-cancelled context", f.name, n)
		}
	}
}

// TestMidRunCancellationStopsPromptly: cancelling mid-campaign must
// return context.Canceled well before the trial budget is spent.
func TestMidRunCancellationStopsPromptly(t *testing.T) {
	for _, f := range fanOuts {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			err := f.run(ctx, 1_000_000, workers, func(i int) int {
				if ran.Add(1) == 100 {
					cancel()
				}
				time.Sleep(10 * time.Microsecond)
				return i
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: err = %v, want context.Canceled", f.name, workers, err)
			}
			if n := ran.Load(); n >= 1_000_000 {
				t.Errorf("%s workers=%d: cancellation did not stop the campaign early", f.name, workers)
			}
			cancel()
		}
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
	for _, f := range fanOuts {
		for iter := 0; iter < 20; iter++ {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			err := f.run(ctx, 100_000, 8, func(i int) int {
				if ran.Add(1) == 50 {
					cancel()
				}
				return i
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s iter %d: err = %v", f.name, iter, err)
			}
			cancel()
		}
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
	for _, f := range fanOuts {
		for iter := 0; iter < 50; iter++ {
			if err := f.run(ctx, 1000, 8, func(i int) int { return i }); err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
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
