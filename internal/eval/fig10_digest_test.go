package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"chipletqc/internal/mcm"
	"chipletqc/internal/scenario"
)

// fig10OutputDigest pins Fig. 10 bit for bit: every point's system,
// benchmark, compiled 2q count, mono-zero flag and the exact bits of its
// log ratio, over the quick-config paper and tight-thresholds systems up
// to 40 qubits with link-aware routing off and on, at seeds 1 to 3.
// TestGoldenFig10 allows slack on log ratios, so a change of summation
// order in the fidelity path passes it; this digest does not. Recompute
// it after an intentional change by printing `got`.
const fig10OutputDigest = "5f27f8cdb312ecccf5aa5eb42d523612c8dcd23e55779f7e3dd2919931440773"

func TestFig10OutputDigest(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{scenario.PaperName, scenario.TightThresholdsName} {
		scn := scenario.MustLookup(name)
		grids := mcm.EnumerateGridsFrom(scn.Catalog, 40)
		for seed := int64(1); seed <= 3; seed++ {
			for _, linkAware := range []bool{false, true} {
				cfg := QuickConfigFor(scn, seed)
				cfg.LinkAwareRouting = linkAware
				pts, err := runFig10(t, cfg, grids, cfg.Fig10Samples)
				if err != nil {
					t.Fatalf("%s seed %d link-aware=%v: %v", name, seed, linkAware, err)
				}
				fmt.Fprintf(h, "%s seed=%d link-aware=%v points=%d\n", name, seed, linkAware, len(pts))
				for _, p := range pts {
					fmt.Fprintf(h, "%+v %s %d %v %x\n", p.Grid, p.Bench, p.TwoQ, p.MonoZero,
						math.Float64bits(p.LogRatio))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fig10OutputDigest {
		t.Errorf("Fig. 10 output digest = %s, want %s", got, fig10OutputDigest)
	}
}
