package eval

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"chipletqc/internal/scenario"
)

// fig1OutputDigest pins Fig. 1 bit for bit: every row's module size and
// the exact bits of its collision-free yield and E_avg, over the
// quick-config paper and tight-thresholds catalogs at seeds 1 and 2,
// each at one and four workers. E_avg is the die-order mean over the
// KGD survivors, NaN for a size with none; the digest covers both
// kinds of row. Any change to the die trial's draws or to the
// summation order moves it. Recompute it after an intentional change
// by printing `got`.
const fig1OutputDigest = "48844a833f09d6c05f8c089be3b1e4923ed6c4b8e8bfa7c06c30178ed0e32494"

func TestFig1OutputDigest(t *testing.T) {
	h := sha256.New()
	var withKGD, without int
	for _, name := range []string{scenario.PaperName, scenario.TightThresholdsName} {
		scn := scenario.MustLookup(name)
		for seed := int64(1); seed <= 2; seed++ {
			for _, workers := range []int{1, 4} {
				cfg := QuickConfigFor(scn, seed)
				cfg.Workers = workers
				res, err := Fig1(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s seed=%d workers=%d rows=%d\n", name, seed, workers, len(res))
				for _, r := range res {
					if r.Yield > 0 {
						withKGD++
					} else {
						without++
					}
					fmt.Fprintf(h, "%d %x %x\n", r.Qubits, math.Float64bits(r.Yield), math.Float64bits(r.EAvg))
				}
			}
		}
	}
	if withKGD == 0 || without == 0 {
		t.Fatalf("digest covers %d rows with KGD survivors and %d without, want both", withKGD, without)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fig1OutputDigest {
		t.Errorf("Fig. 1 output digest = %s, want %s", got, fig1OutputDigest)
	}
}
