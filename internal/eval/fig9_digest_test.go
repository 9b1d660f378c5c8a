package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"chipletqc/internal/scenario"
)

// fig9OutputDigest pins Fig. 9 bit for bit: every cell's system, mono
// availability and the exact bits of its MCM E_avg, mono E_avg and
// ratio, for all four link ratios, over the quick-config paper and
// tight-thresholds square systems at seeds 1 and 2. The equal-count
// selection keeps the best K assembled modules, so the digest covers
// both a partial pull (K > 0) and a full drain (no mono survivors).
// TestGoldenFig9 allows slack on ratios; this digest does not.
// Recompute it after an intentional change by printing `got`.
const fig9OutputDigest = "791047e265523fec5495086ce5dc1da88781ef66e9de3b4bc1574cd5100df582"

func TestFig9OutputDigest(t *testing.T) {
	h := sha256.New()
	var avail, unavail int
	for _, name := range []string{scenario.PaperName, scenario.TightThresholdsName} {
		scn := scenario.MustLookup(name)
		for seed := int64(1); seed <= 2; seed++ {
			cfg := QuickConfigFor(scn, seed)
			res := runFig9(t, cfg)
			for _, ratio := range Fig9Ratios {
				fmt.Fprintf(h, "%s seed=%d %s cells=%d\n", name, seed, ratio, len(res[ratio]))
				for _, c := range res[ratio] {
					if c.MonoAvailable {
						avail++
					} else {
						unavail++
					}
					fmt.Fprintf(h, "%+v %d %v %x %x %x\n", c.Grid, c.Qubits, c.MonoAvailable,
						math.Float64bits(c.EAvgMCM), math.Float64bits(c.EAvgMono), math.Float64bits(c.Ratio))
				}
			}
		}
	}
	if avail == 0 || unavail == 0 {
		t.Fatalf("digest covers %d cells with mono survivors and %d without, want both", avail, unavail)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fig9OutputDigest {
		t.Errorf("Fig. 9 output digest = %s, want %s", got, fig9OutputDigest)
	}
}
