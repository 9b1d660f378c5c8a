package runner

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

func TestCheckpoints(t *testing.T) {
	cases := []struct {
		name     string
		min, max int
		want     []int
	}{
		{"doubling ladder", 250, 2000, []int{250, 500, 1000, 2000}},
		{"max not power of two", 250, 900, []int{250, 500, 900}},
		{"min equals max", 100, 100, []int{100}},
		{"min above max", 500, 100, []int{100}},
		{"zero min defaults to one", 0, 4, []int{1, 2, 4}},
		{"non-positive max", 250, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Checkpoints(tc.min, tc.max); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Checkpoints(%d, %d) = %v, want %v", tc.min, tc.max, got, tc.want)
			}
		})
	}
}

// TestTrialRNGMatchesRand pins TrialRNG's copy of the ziggurat, Float64
// and Intn to math/rand v1 on the same SplitMix64 stream: 10^6
// interleaved draws over a thousand (seed, trial) streams must agree bit
// for bit, with the ziggurat's base-strip tail and wedge branches each
// exercised, and so must Intn's draws and stream position on every row.
func TestTrialRNGMatchesRand(t *testing.T) {
	rng := NewTrialRNG()
	tails, wedges := 0, 0
	for i := 0; i < 1000; i++ {
		seed := int64(i%10) * 7919
		want := rand.New(&splitmix{state: uint64(Seed(seed, i))})
		got := rng.At(seed, i)
		for k := 0; k < 1000; k++ {
			var w, g float64
			if k%8 == 7 {
				w, g = want.Float64(), got.Float64()
			} else {
				peek := got.src
				j := int32(peek.Uint64() >> 32)
				if s := j & 0x7F; absInt32(j) >= kn[s] {
					if s == 0 {
						tails++
					} else {
						wedges++
					}
				}
				w, g = want.NormFloat64(), got.NormFloat64()
			}
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d trial %d draw %d: TrialRNG %v != math/rand %v", seed, i, k, g, w)
			}
		}
		// The rand.Rand view continues the same stream.
		if w, g := want.Int63(), got.Rand().Int63(); w != g {
			t.Fatalf("trial %d: Rand() view %d != math/rand %d", i, g, w)
		}
	}
	if tails == 0 || wedges == 0 {
		t.Errorf("ziggurat branches unexercised: %d tail, %d wedge draws", tails, wedges)
	}

	// Intn: every row's draws and the stream position after them match
	// rand.Rand.Intn. 3<<29 rejects a quarter of its Int31 draws (the
	// other rows reject too rarely to be seen); 1<<31 and up take the
	// Int63n path.
	for _, n := range []int{1, 2, 64, 1 << 30, 3, 7, 1000, 3 << 29, 1<<31 - 1, 1 << 31, 1<<40 + 3} {
		extra := 0
		for i := 0; i < 50; i++ {
			want := rand.New(&splitmix{state: uint64(Seed(int64(n), i))})
			got := rng.At(int64(n), i)
			shadow := got.src
			for k := 0; k < 200; k++ {
				if w, g := want.Intn(n), got.Intn(n); w != g {
					t.Fatalf("Intn(%d) trial %d draw %d: TrialRNG %d != math/rand %d", n, i, k, g, w)
				}
				shadow.Uint64()
				for shadow.state != got.src.state {
					shadow.Uint64()
					extra++
				}
			}
			if w, g := want.Int63(), got.Rand().Int63(); w != g {
				t.Fatalf("Intn(%d) trial %d: stream position differs after the draws", n, i)
			}
		}
		if rejects := n == 3<<29; rejects != (extra > 0) {
			t.Errorf("Intn(%d): %d redrawn values, want redraws only for 3<<29", n, extra)
		}
	}
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			rng.Intn(n)
		}()
	}
}

func TestTrialRNGNormalZeroSigmaDrawsNothing(t *testing.T) {
	rng := NewTrialRNG().At(3, 4)
	if got := rng.Normal(5.25, 0); got != 5.25 {
		t.Errorf("Normal(5.25, 0) = %v", got)
	}
	if got, want := rng.Float64(), Rand(3, 4).Float64(); got != want {
		t.Errorf("Normal with sigma 0 advanced the stream: next draw %v, want %v", got, want)
	}
}

func TestTrialRNGOwnsItsCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(TrialRNG{}); n != 128 {
		t.Errorf("TrialRNG is %d B, want 128", n)
	}
}

// streamRun executes a StreamPlanned campaign whose aggregate is an
// order-sensitive fold, so any deviation from index-ordered observation
// shows up immediately.
func streamRun(t *testing.T, workers int) (trials int, fold uint64, seen []int) {
	t.Helper()
	trials, err := StreamPlanned(bg, 1000, workers, Checkpoints(100, 1000),
		func() struct{} { return struct{}{} }, nil,
		func(_ struct{}, i int) uint64 { return uint64(Seed(9, i)) },
		func(i int, v uint64) {
			fold = fold*1099511628211 + v
			seen = append(seen, i)
		},
		func(n int) bool { return n >= 400 })
	if err != nil {
		t.Fatal(err)
	}
	return trials, fold, seen
}

func TestStreamWorkerCountInvariance(t *testing.T) {
	t1, f1, s1 := streamRun(t, 1)
	t8, f8, s8 := streamRun(t, 8)
	if t1 != t8 || f1 != f8 {
		t.Errorf("stream diverged across workers: (%d, %x) vs (%d, %x)", t1, f1, t8, f8)
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Error("observe order differs across worker counts")
	}
}

func TestStreamStopsAtCheckpoint(t *testing.T) {
	trials, _, seen := streamRun(t, 4)
	// stop fires at the first checkpoint >= 400.
	if trials != 400 {
		t.Errorf("trials = %d, want 400 (first satisfying checkpoint)", trials)
	}
	if len(seen) != 400 || seen[0] != 0 || seen[399] != 399 {
		t.Errorf("observed %d trials, want exactly [0, 400)", len(seen))
	}
}

func TestStreamRunsToMaxWithoutStop(t *testing.T) {
	count := 0
	trials, err := StreamPlanned(bg, 777, 3, Checkpoints(100, 777),
		func() struct{} { return struct{}{} }, nil,
		func(_ struct{}, i int) int { return i },
		func(i, v int) {
			if i != v || i != count {
				t.Fatalf("observation out of order: i=%d v=%d count=%d", i, v, count)
			}
			count++
		},
		func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if trials != 777 || count != 777 {
		t.Errorf("trials = %d, observed = %d, want 777", trials, count)
	}
}

func TestStreamDegenerateInputs(t *testing.T) {
	if got, err := StreamPlanned(bg, 0, 4, nil, func() int { return 0 }, nil,
		func(int, int) bool { return false }, func(int, bool) {},
		func(int) bool { return false }); err != nil || got != 0 {
		t.Errorf("max=0 ran %d trials, err %v", got, err)
	}
	// Empty/nil checkpoints still run to max via the implied final block.
	n := 0
	got, err := StreamPlanned(bg, 50, 2, nil, func() int { return 0 }, nil,
		func(_ int, i int) int { return i }, func(int, int) { n++ },
		func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 || n != 50 {
		t.Errorf("nil checkpoints: trials = %d observed = %d, want 50", got, n)
	}
}
