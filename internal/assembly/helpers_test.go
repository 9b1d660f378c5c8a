package assembly

import (
	"context"
	"testing"

	"chipletqc/internal/collision"
	"chipletqc/internal/fab"
	"chipletqc/internal/mcm"
	"chipletqc/internal/noise"
	"chipletqc/internal/topo"
)

// Test-side wrappers over the ctx-first API: they run under
// context.Background() and fail the test on an unexpected error.

// testBatchConfig pins the paper's fabrication baseline (laser-tuned
// precision, Table I thresholds, synthetic Washington detuning model).
// Production callers compose configs from a device scenario
// (internal/scenario); these tests build the paper values directly
// because the scenario package sits above this one.
func testBatchConfig(seed int64) BatchConfig {
	return BatchConfig{
		Fab:    fab.DefaultModel(),
		Params: collision.DefaultParams(),
		Det:    testDetuningModel(seed),
		Seed:   seed,
	}
}

// testDetuningModel is the paper's detuning model: the Washington-class
// calibration run at the deployed-device spread over 15 cycles, binned
// at the Fig. 7 width.
func testDetuningModel(seed int64) *noise.DetuningModel {
	pts := noise.CalibrationRun(noise.WashingtonSpec(), noise.FreqSpreadFig7, 15, seed, noise.DefaultCalibConfig())
	return noise.NewDetuningModel(pts, noise.BinWidthFig7)
}

// testAssembleConfig pins the paper's assembly policy (100 reshuffles,
// nominal bonding, state-of-art links).
func testAssembleConfig(seed int64) AssembleConfig {
	return AssembleConfig{
		MaxReshuffles:    100,
		BondFailureScale: 1,
		Link:             noise.DefaultLinkModel(),
		Params:           collision.DefaultParams(),
		Seed:             seed,
	}
}

func fabricate(tb testing.TB, spec topo.ChipSpec, size int, cfg BatchConfig) *Batch {
	tb.Helper()
	b, err := Fabricate(context.Background(), spec, size, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func assemble(tb testing.TB, b *Batch, grid mcm.Grid, cfg AssembleConfig) ([]*AssembledMCM, Stats) {
	tb.Helper()
	mods, st, err := Assemble(context.Background(), b, grid, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return mods, st
}
