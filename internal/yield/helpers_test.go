package yield

import (
	"context"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/topo"
)

// Test-side wrappers over the ctx-first API: they run under
// context.Background() and fail the test on an unexpected error, so the
// determinism and statistics tests stay focused on their assertions.

// testConfig mirrors the Fig. 4 setup (batch 1000, laser-tuned sigma,
// Table I thresholds). Production callers compose configs from a device
// scenario (internal/scenario); these tests pin the paper values
// directly because the scenario package sits above this one.
func testConfig() Config {
	return Config{
		Batch:  1000,
		Model:  fab.DefaultModel(),
		Params: collision.DefaultParams(),
		Seed:   1,
	}
}

func simulate(tb testing.TB, d *topo.Device, cfg Config) Result {
	tb.Helper()
	res, err := Simulate(context.Background(), d, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func monolithicCurve(tb testing.TB, sizes []int, cfg Config) []Point {
	tb.Helper()
	pts, err := MonolithicCurve(context.Background(), sizes, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return pts
}

func chipletYields(tb testing.TB, cfg Config) []Result {
	tb.Helper()
	res, err := ChipletYields(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func sweep(tb testing.TB, steps, sigmas []float64, sizes []int, cfg Config) []SweepCell {
	tb.Helper()
	cells, err := Sweep(context.Background(), steps, sigmas, sizes, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return cells
}
