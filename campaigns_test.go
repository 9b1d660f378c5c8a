package chipletqc_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"chipletqc"
)

// facadeCampaignExp is a caller-defined experiment implementing the
// public Experiment interface, instrumented to count real executions —
// the extension path ARCHITECTURE.md documents, driven end to end
// through RunCampaign.
type facadeCampaignExp struct{ runs atomic.Int64 }

func (e *facadeCampaignExp) Name() string     { return "facade-campaign-exp" }
func (e *facadeCampaignExp) Describe() string { return "facade campaign integration probe" }

func (e *facadeCampaignExp) Run(ctx context.Context, cfg chipletqc.ExperimentConfig) (chipletqc.Artifact, error) {
	e.runs.Add(1)
	scn := cfg.ResolvedScenario()
	return chipletqc.Artifact{
		Name:                e.Name(),
		Description:         e.Describe(),
		Seed:                cfg.Seed,
		Scenario:            scn.Name,
		ScenarioFingerprint: scn.Fingerprint(),
		Fingerprint:         chipletqc.ConfigFingerprint(cfg),
		Trials:              1,
	}, nil
}

// TestRunCampaignWithCallerRegistrations drives a campaign whose
// experiment AND scenario are both caller registrations, entirely
// through the public facade: cold run simulates, warm run is served
// from the store, and the artifacts record the right device worlds.
func TestRunCampaignWithCallerRegistrations(t *testing.T) {
	exp := &facadeCampaignExp{}
	chipletqc.RegisterExperiment(exp)

	custom := chipletqc.PaperScenario()
	custom.Name = "facade-campaign-scn"
	custom.Description = "paper world at a tighter fabrication corner"
	custom.Fab.Sigma = 0.008
	chipletqc.RegisterScenario(custom)

	st, err := chipletqc.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	plan := chipletqc.CampaignPlan{
		Experiments: []string{"facade-campaign-exp"},
		Scenarios:   []string{"paper", "facade-campaign-scn"},
		Seed:        7,
	}

	cold, err := chipletqc.RunCampaign(context.Background(), plan, chipletqc.CampaignOptions{Store: st})
	if err != nil {
		t.Fatalf("cold RunCampaign: %v", err)
	}
	if cold.Executed != 2 || cold.Cached != 0 || exp.runs.Load() != 2 {
		t.Fatalf("cold run: executed %d cached %d runs %d, want 2/0/2",
			cold.Executed, cold.Cached, exp.runs.Load())
	}
	if got := cold.Cells[1].Artifact.Scenario; got != "facade-campaign-scn" {
		t.Errorf("second cell ran scenario %q, want facade-campaign-scn", got)
	}
	if cold.Cells[0].Cell.Fingerprint == cold.Cells[1].Cell.Fingerprint {
		t.Error("different scenarios must produce different cell fingerprints")
	}

	warm, err := chipletqc.RunCampaign(context.Background(), plan, chipletqc.CampaignOptions{Store: st})
	if err != nil {
		t.Fatalf("warm RunCampaign: %v", err)
	}
	if warm.Executed != 0 || warm.Cached != 2 || exp.runs.Load() != 2 {
		t.Errorf("warm run: executed %d cached %d runs %d, want 0/2/2",
			warm.Executed, warm.Cached, exp.runs.Load())
	}
}

// TestExpandCampaignDryRun pins the facade grid view used by
// `campaign -list`.
func TestExpandCampaignDryRun(t *testing.T) {
	cells, err := chipletqc.ExpandCampaign(chipletqc.CampaignPlan{
		Experiments: []string{"fig2", "eq1"},
		Scenarios:   []string{"paper", "future-fab"},
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("ExpandCampaign: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("grid size %d, want 4", len(cells))
	}
	if cells[0].ID() != "fig2@paper" || cells[3].ID() != "eq1@future-fab" {
		t.Errorf("grid order wrong: %s ... %s", cells[0].ID(), cells[3].ID())
	}
	for _, c := range cells {
		if !strings.HasPrefix(c.Key(), c.Experiment+"-") {
			t.Errorf("cell %s has malformed store key %q", c.ID(), c.Key())
		}
	}
}

// TestFacadeNamesThePolicyTypes: an external caller can spell the
// embedded trial policy in keyed literals through the facade aliases.
func TestFacadeNamesThePolicyTypes(t *testing.T) {
	cells, err := chipletqc.ExpandCampaign(chipletqc.CampaignPlan{
		Experiments: []string{"fig2"},
		Overrides: []chipletqc.CampaignOverride{{
			Label: "adaptive", PolicyOverride: chipletqc.YieldPolicyOverride{Precision: 0.02, MaxTrials: 4000},
		}},
		Seed: 1,
	})
	if err != nil {
		t.Fatalf("ExpandCampaign: %v", err)
	}
	want := chipletqc.YieldPolicy{Precision: 0.02, MaxTrials: 4000}
	if got := cells[0].Config.Policy; got != want {
		t.Errorf("override reached the cell as %+v, want %+v", got, want)
	}
	trials := chipletqc.TrialPolicy{MonoBatch: 1, ChipletBatch: 1, Policy: want}
	if trials.Precision != 0.02 {
		t.Errorf("TrialPolicy selector Precision = %g, want 0.02", trials.Precision)
	}
}

// TestParseCampaignShardFacade pins the facade shard parser.
func TestParseCampaignShardFacade(t *testing.T) {
	sh, err := chipletqc.ParseCampaignShard("1/3")
	if err != nil || sh.Index != 1 || sh.Count != 3 {
		t.Errorf("ParseCampaignShard(1/3) = %+v, %v", sh, err)
	}
	if _, err := chipletqc.ParseCampaignShard("bogus"); err == nil {
		t.Error("malformed shard should error")
	}
}

// TestStoreAdminFacade drives the new store admin surface end to end
// through the public API: an in-memory campaign, a verify pass, a
// backup to a filesystem directory, and a restore into a second mem
// store — plus the filesystem-only verbs rejecting the mem backend.
func TestStoreAdminFacade(t *testing.T) {
	st := chipletqc.OpenMemStore()
	plan := chipletqc.CampaignPlan{Experiments: []string{"fig2"}, Seed: 3, Quick: true}
	if _, err := chipletqc.RunCampaign(context.Background(), plan, chipletqc.CampaignOptions{Store: st}); err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}

	rep, err := chipletqc.VerifyStore(st)
	if err != nil {
		t.Fatalf("VerifyStore: %v", err)
	}
	if !rep.OK() || rep.Checked != 1 {
		t.Fatalf("verify: %+v, want 1 clean record", rep)
	}

	bak := t.TempDir()
	if n, err := chipletqc.BackupStore(st, bak); err != nil || n != 1 {
		t.Fatalf("BackupStore: n=%d err=%v", n, err)
	}
	second := chipletqc.OpenMemStore()
	if n, err := chipletqc.RestoreStore(second, bak); err != nil || n != 1 {
		t.Fatalf("RestoreStore: n=%d err=%v", n, err)
	}
	// The restored store serves the same campaign without executing.
	warm, err := chipletqc.RunCampaign(context.Background(), plan, chipletqc.CampaignOptions{Store: second})
	if err != nil {
		t.Fatalf("warm RunCampaign: %v", err)
	}
	if warm.Executed != 0 || warm.Cached != 1 {
		t.Errorf("restored store: executed %d cached %d, want 0/1", warm.Executed, warm.Cached)
	}

	// Filesystem-bound verbs reject other backends instead of lying.
	if _, err := chipletqc.PruneStore(st); err == nil {
		t.Error("PruneStore on a mem store should error")
	}
	if _, err := chipletqc.GCStore(st, chipletqc.StoreGCPolicy{MaxRecords: 1}); err == nil {
		t.Error("GCStore on a mem store should error")
	}
}
