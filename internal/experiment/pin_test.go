package experiment_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chipletqc/internal/campaign"
	"chipletqc/internal/experiment"
	"chipletqc/internal/scenario"
)

// pinOverrides are the trial-policy overrides the fingerprint pin
// covers: none, an adaptive budget, the rare-event estimator, and the
// negative/"none" reset sentinels. They are built by field selector so
// the pin reads the same whichever struct declares the fields.
func pinOverrides() []campaign.Override {
	var adaptive, rare, reset campaign.Override
	adaptive.Label = "adaptive"
	adaptive.Precision, adaptive.MaxTrials = 0.02, 4000
	rare.Label = "rare"
	rare.Sampling, rare.RelPrecision = "importance", 0.2
	reset.Label = "reset"
	reset.Precision, reset.MaxTrials, reset.RelPrecision, reset.Sampling = -1, -1, -1, "none"
	return []campaign.Override{{}, adaptive, rare, reset}
}

// TestCampaignFingerprintPin pins the store key of every cell a
// campaign expands to for each registered experiment under paper and
// tight-thresholds, at quick and full scale, under pinOverrides. A
// refactor of how the trial policy reaches eval.Config must leave every
// cache key where it was.
func TestCampaignFingerprintPin(t *testing.T) {
	const (
		wantCells  = 208
		wantDigest = "368366e606e2e176"
	)
	var lines []string
	for _, quick := range []bool{true, false} {
		cells, err := campaign.Expand(campaign.Plan{
			Scenarios: []string{scenario.PaperName, scenario.TightThresholdsName},
			Overrides: pinOverrides(),
			Seed:      1,
			Quick:     quick,
		})
		if err != nil {
			t.Fatalf("Expand(quick=%v): %v", quick, err)
		}
		for _, c := range cells {
			fp := experiment.Fingerprint(c.Config)
			if fp != c.Fingerprint {
				t.Errorf("%s: cell fingerprint %s, config fingerprint %s", c.ID(), c.Fingerprint, fp)
			}
			lines = append(lines, fmt.Sprintf("quick=%v %s %s", quick, c.ID(), fp))
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	if got := fmt.Sprintf("%x", sum[:8]); len(lines) != wantCells || got != wantDigest {
		t.Errorf("%d cells, digest %s; want %d cells, digest %s\n%s",
			len(lines), got, wantCells, wantDigest, strings.Join(lines, "\n"))
	}
}

// TestPlanWirePin pins the JSON a campaign.Plan with every override
// field set marshals to: the daemon's submission format.
func TestPlanWirePin(t *testing.T) {
	seed := int64(9)
	var o campaign.Override
	o.Label = "all"
	o.Seed = &seed
	o.Precision, o.MaxTrials = 0.02, 4000
	o.RelPrecision, o.Sampling = 0.2, "importance"
	o.MonoBatch, o.ChipletBatch, o.MaxQubits = 300, 400, 100
	plan := campaign.Plan{
		Experiments: []string{"fig4", "fig8"},
		Scenarios:   []string{scenario.PaperName, scenario.TightThresholdsName},
		Overrides:   []campaign.Override{{}, o},
		Seed:        7,
		Quick:       true,
	}
	const want = `{"experiments":["fig4","fig8"],"scenarios":["paper","tight-thresholds"],"overrides":[{},{"label":"all","seed":9,"precision":0.02,"max_trials":4000,"rel_precision":0.2,"sampling":"importance","mono_batch":300,"chiplet_batch":400,"max_qubits":100}],"seed":7,"quick":true}`
	got, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("plan JSON\n got %s\nwant %s", got, want)
	}
	var back campaign.Plan
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, plan) {
		t.Errorf("round trip = %+v, want %+v", back, plan)
	}
}
