package campaign_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chipletqc/internal/campaign"
	"chipletqc/internal/eval"
	"chipletqc/internal/experiment"
	"chipletqc/internal/report"
	"chipletqc/internal/store"
	"chipletqc/internal/yield"
)

// execLog records every real execution of the counting test
// experiments as "<experiment>/<config fingerprint>" entries, so tests
// can assert exactly which cells simulated and which were served from
// the store.
var execLog struct {
	mu      sync.Mutex
	entries []string
}

func logExec(name string, cfg eval.Config) {
	execLog.mu.Lock()
	defer execLog.mu.Unlock()
	execLog.entries = append(execLog.entries, name+"/"+experiment.Fingerprint(cfg))
}

// resetExecLog clears the log and returns a snapshot function.
func resetExecLog() func() []string {
	execLog.mu.Lock()
	execLog.entries = nil
	execLog.mu.Unlock()
	return func() []string {
		execLog.mu.Lock()
		defer execLog.mu.Unlock()
		return append([]string(nil), execLog.entries...)
	}
}

// registerCounting registers the shared counting experiments exactly
// once per test binary (the experiment registry is global).
var registerCounting = sync.OnceFunc(func() {
	for _, name := range []string{"test-count-a", "test-count-b"} {
		name := name
		experiment.Register(experiment.New(name, "instrumented no-op workload for campaign tests",
			func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
				logExec(name, cfg)
				tb := report.New("campaign test payload", "seed", "scenario")
				tb.Add(cfg.Seed, cfg.ResolvedScenario().Name)
				return tb, 7, nil
			}))
	}
})

// plan2x2 is the canonical 2 experiments × 2 scenarios test grid.
func plan2x2(seed int64) campaign.Plan {
	registerCounting()
	return campaign.Plan{
		Experiments: []string{"test-count-a", "test-count-b"},
		Scenarios:   []string{"paper", "future-fab"},
		Seed:        seed,
	}
}

func openStore(t *testing.T) *store.FS {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

// forEachBackend runs the test body once per store backend. The
// campaign engine depends only on the store.Store interface, so its
// cache semantics must hold identically on every backend.
func forEachBackend(t *testing.T, body func(t *testing.T, open func(t *testing.T) store.Store)) {
	t.Run("fs", func(t *testing.T) {
		body(t, func(t *testing.T) store.Store { return openStore(t) })
	})
	t.Run("mem", func(t *testing.T) {
		body(t, func(t *testing.T) store.Store { return store.OpenMem() })
	})
}

// TestWarmStoreExecutesZero pins the headline cache contract on every
// backend: an identical campaign against a warm store executes nothing
// and returns the stored artifacts byte-for-byte.
func TestWarmStoreExecutesZero(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(t *testing.T) store.Store) {
		snapshot := resetExecLog()
		st := open(t)
		plan := plan2x2(1)

		first, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st})
		if err != nil {
			t.Fatalf("first run: %v", err)
		}
		if first.Executed != 4 || first.Cached != 0 {
			t.Fatalf("cold run: executed %d cached %d, want 4/0", first.Executed, first.Cached)
		}
		if got := snapshot(); len(got) != 4 {
			t.Fatalf("cold run simulated %d cells, want 4: %v", len(got), got)
		}

		second, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st})
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
		if second.Executed != 0 || second.Cached != 4 {
			t.Errorf("warm run: executed %d cached %d, want 0/4", second.Executed, second.Cached)
		}
		if got := snapshot(); len(got) != 4 {
			t.Errorf("warm run simulated %d extra cells: %v", len(got)-4, got[4:])
		}
		// Byte-identical artifacts: the warm run returns what the cold run
		// stored, including wall time and payload.
		for i := range first.Cells {
			a, _ := json.Marshal(first.Cells[i].Artifact)
			b, _ := json.Marshal(second.Cells[i].Artifact)
			if string(a) != string(b) {
				t.Errorf("cell %s artifact changed through the store:\ncold %s\nwarm %s",
					first.Cells[i].Cell.ID(), a, b)
			}
			if !second.Cells[i].Cached {
				t.Errorf("cell %s not marked cached on the warm run", second.Cells[i].Cell.ID())
			}
		}
	})
}

// TestFingerprintMismatchReruns pins that any fingerprint-relevant
// change — here the seed — misses the cache and re-simulates.
func TestFingerprintMismatchReruns(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(t *testing.T) store.Store) {
		snapshot := resetExecLog()
		st := open(t)

		if _, err := campaign.Run(context.Background(), plan2x2(1), campaign.Options{Store: st}); err != nil {
			t.Fatalf("seed-1 run: %v", err)
		}
		rep, err := campaign.Run(context.Background(), plan2x2(2), campaign.Options{Store: st})
		if err != nil {
			t.Fatalf("seed-2 run: %v", err)
		}
		if rep.Executed != 4 || rep.Cached != 0 {
			t.Errorf("changed seed: executed %d cached %d, want 4/0", rep.Executed, rep.Cached)
		}
		if got := snapshot(); len(got) != 8 {
			t.Errorf("total executions %d, want 8 (4 per distinct seed)", len(got))
		}
		if n, _ := st.Len(); n != 8 {
			t.Errorf("store holds %d records, want 8 distinct keys", n)
		}
	})
}

// TestForceReexecutes pins Options.Force: every cell runs even against
// a warm store, and the store is refreshed.
func TestForceReexecutes(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(t *testing.T) store.Store) {
		snapshot := resetExecLog()
		st := open(t)
		plan := plan2x2(1)
		if _, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st}); err != nil {
			t.Fatalf("cold run: %v", err)
		}
		rep, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st, Force: true})
		if err != nil {
			t.Fatalf("forced run: %v", err)
		}
		if rep.Executed != 4 || rep.Cached != 0 {
			t.Errorf("forced run: executed %d cached %d, want 4/0", rep.Executed, rep.Cached)
		}
		if got := snapshot(); len(got) != 8 {
			t.Errorf("forced run should have re-simulated all 4 cells, log: %v", got)
		}
	})
}

// TestNoStoreRunsEverything pins that a store-less campaign still works
// (pure sweep, nothing cached).
func TestNoStoreRunsEverything(t *testing.T) {
	resetExecLog()
	rep, err := campaign.Run(context.Background(), plan2x2(1), campaign.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Executed != 4 || rep.Cached != 0 {
		t.Errorf("store-less run: executed %d cached %d, want 4/0", rep.Executed, rep.Cached)
	}
}

// TestInterruptResume pins the resume contract: a campaign cancelled
// midway persists its completed cells, and re-running the same plan
// executes only the missing ones.
func TestInterruptResume(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(t *testing.T) store.Store) {
		snapshot := resetExecLog()
		st := open(t)
		plan := plan2x2(1)

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var done int
		var sawError bool
		_, err := campaign.Run(ctx, plan, campaign.Options{
			Store:   st,
			Workers: 1, // serial: cells complete in grid order
			Progress: func(e campaign.Event) {
				if e.Phase == campaign.PhaseError {
					sawError = true
				}
				if e.Phase == campaign.PhaseDone {
					if done++; done == 2 {
						cancel() // interrupt after the second cell lands
					}
				}
			},
		})
		if err != context.Canceled {
			t.Fatalf("interrupted run returned %v, want context.Canceled", err)
		}
		if sawError {
			t.Error("cancellation must not masquerade as cell errors in the event stream")
		}
		if n, _ := st.Len(); n != 2 {
			t.Fatalf("store holds %d records after interruption, want 2", n)
		}
		firstPass := snapshot()
		if len(firstPass) != 2 {
			t.Fatalf("interrupted run simulated %d cells, want 2: %v", len(firstPass), firstPass)
		}

		rep, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st})
		if err != nil {
			t.Fatalf("resume run: %v", err)
		}
		if rep.Executed != 2 || rep.Cached != 2 {
			t.Errorf("resume: executed %d cached %d, want 2/2", rep.Executed, rep.Cached)
		}
		// The resumed executions are exactly the cells the first pass never
		// reached — no overlap.
		all := snapshot()
		resumed := all[len(firstPass):]
		for _, r := range resumed {
			for _, f := range firstPass {
				if r == f {
					t.Errorf("cell %s re-executed on resume", r)
				}
			}
		}
		if n, _ := st.Len(); n != 4 {
			t.Errorf("store holds %d records after resume, want 4", n)
		}
	})
}

// TestShardPartitionsDisjointExhaustive pins the shard algebra over a
// grid with overrides: for every shard count, the shards are pairwise
// disjoint and their union is the full grid, in order.
func TestShardPartitionsDisjointExhaustive(t *testing.T) {
	registerCounting()
	plan := campaign.Plan{
		Experiments: []string{"test-count-a", "test-count-b"},
		Scenarios:   []string{"paper", "future-fab"},
		Overrides:   []campaign.Override{{}, {Label: "alt-seed", Seed: ptr(int64(9))}},
		Seed:        1,
	}
	grid, err := campaign.Expand(plan)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(grid) != 8 {
		t.Fatalf("grid size %d, want 8", len(grid))
	}
	for count := 1; count <= 4; count++ {
		seen := map[int]string{}
		var union []int
		for idx := 0; idx < count; idx++ {
			sh := campaign.Shard{Index: idx, Count: count}
			for _, c := range sh.Filter(grid) {
				if prev, dup := seen[c.Index]; dup {
					t.Errorf("count %d: cell %d owned by shards %s and %s", count, c.Index, prev, sh.String())
				}
				seen[c.Index] = sh.String()
				union = append(union, c.Index)
			}
		}
		if len(union) != len(grid) {
			t.Errorf("count %d: shards cover %d of %d cells", count, len(union), len(grid))
		}
	}
}

// TestShardedRunsMatchUnsharded pins the acceptance criterion: shard
// 0/2 + shard 1/2 into one store produce the same store contents as an
// unsharded run into another.
func TestShardedRunsMatchUnsharded(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(t *testing.T) store.Store) {
		resetExecLog()
		plan := plan2x2(1)
		sharded, unsharded := open(t), open(t)

		for i := 0; i < 2; i++ {
			rep, err := campaign.Run(context.Background(), plan, campaign.Options{
				Store: sharded,
				Shard: campaign.Shard{Index: i, Count: 2},
			})
			if err != nil {
				t.Fatalf("shard %d/2: %v", i, err)
			}
			if rep.Total != 2 || rep.GridSize != 4 || rep.Executed != 2 {
				t.Errorf("shard %d/2: total %d grid %d executed %d, want 2/4/2",
					i, rep.Total, rep.GridSize, rep.Executed)
			}
		}
		if _, err := campaign.Run(context.Background(), plan, campaign.Options{Store: unsharded}); err != nil {
			t.Fatalf("unsharded: %v", err)
		}

		a, _ := sharded.Keys()
		b, _ := unsharded.Keys()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("store keys diverge:\nsharded   %v\nunsharded %v", a, b)
		}
		// Same artifacts under every key, compared on the byte-stable text
		// rendering (wall time legitimately differs between the runs).
		grid, _ := campaign.Expand(plan)
		for _, c := range grid {
			x, okx, errx := sharded.Get(c.Experiment, c.Fingerprint)
			y, oky, erry := unsharded.Get(c.Experiment, c.Fingerprint)
			if errx != nil || erry != nil || !okx || !oky {
				t.Fatalf("cell %s: get sharded(%t,%v) unsharded(%t,%v)", c.ID(), okx, errx, oky, erry)
			}
			if x.String() != y.String() {
				t.Errorf("cell %s: sharded and unsharded artifacts differ:\n%s\n---\n%s", c.ID(), x, y)
			}
		}
	})
}

// TestExpandDeterministicOrder pins the grid order: experiments
// outermost, then scenarios, then overrides, as listed in the plan.
func TestExpandDeterministicOrder(t *testing.T) {
	registerCounting()
	plan := campaign.Plan{
		Experiments: []string{"test-count-b", "test-count-a"},
		Scenarios:   []string{"future-fab", "paper"},
		Overrides:   []campaign.Override{{}, {Label: "v2", Seed: ptr(int64(5))}},
		Seed:        1,
	}
	grid, err := campaign.Expand(plan)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var ids []string
	for i, c := range grid {
		if c.Index != i {
			t.Errorf("cell %d carries Index %d", i, c.Index)
		}
		ids = append(ids, c.ID())
	}
	want := []string{
		"test-count-b@future-fab", "test-count-b@future-fab+v2",
		"test-count-b@paper", "test-count-b@paper+v2",
		"test-count-a@future-fab", "test-count-a@future-fab+v2",
		"test-count-a@paper", "test-count-a@paper+v2",
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("grid order:\ngot  %v\nwant %v", ids, want)
	}
	// Expansion is reproducible: same plan, same cells.
	again, _ := campaign.Expand(plan)
	for i := range grid {
		if grid[i].Fingerprint != again[i].Fingerprint {
			t.Errorf("cell %s fingerprint not reproducible", grid[i].ID())
		}
	}
}

// TestExpandValidation pins the error paths: unknown names list the
// known ones, duplicate override labels and empty grids are rejected.
func TestExpandValidation(t *testing.T) {
	registerCounting()
	if _, err := campaign.Expand(campaign.Plan{Experiments: []string{"no-such-exp"}}); err == nil ||
		!strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown experiment error should list known names, got %v", err)
	}
	if _, err := campaign.Expand(campaign.Plan{
		Experiments: []string{"test-count-a"},
		Scenarios:   []string{"no-such-scenario"},
	}); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown scenario error should list known names, got %v", err)
	}
	if _, err := campaign.Expand(campaign.Plan{
		Experiments: []string{"test-count-a"},
		Overrides:   []campaign.Override{{Label: "x"}, {Label: "x"}},
	}); err == nil || !strings.Contains(err.Error(), "duplicate override") {
		t.Errorf("duplicate override label should error, got %v", err)
	}
	// Duplicate names would expand to cells sharing one store key:
	// doubled compute racing to the same record.
	if _, err := campaign.Expand(campaign.Plan{
		Experiments: []string{"test-count-a", "test-count-a"},
	}); err == nil || !strings.Contains(err.Error(), "duplicate experiment") {
		t.Errorf("duplicate experiment should error, got %v", err)
	}
	if _, err := campaign.Expand(campaign.Plan{
		Experiments: []string{"test-count-a"},
		Scenarios:   []string{"paper", "paper"},
	}); err == nil || !strings.Contains(err.Error(), "duplicate scenario") {
		t.Errorf("duplicate scenario should error, got %v", err)
	}
	// A bad trial policy fails at expansion, naming the override.
	for _, o := range []yield.PolicyOverride{{Sampling: "bogus"}, {Precision: math.NaN()}, {RelPrecision: math.Inf(1)}} {
		if _, err := campaign.Expand(campaign.Plan{
			Experiments: []string{"test-count-a"},
			Overrides:   []campaign.Override{{Label: "bad", PolicyOverride: o}},
		}); err == nil || !strings.Contains(err.Error(), `override "bad"`) {
			t.Errorf("override %+v should fail expansion, got %v", o, err)
		}
	}
}

// rawExp is a hand-rolled Experiment (no experiment.New wrapper) whose
// artifacts carry whatever identity the test dictates — exercising the
// campaign's identity normalisation and cross-check.
type rawExp struct {
	name string
	fp   string // stamped into every artifact ("" = left blank)
	runs atomic.Int64
}

func (e *rawExp) Name() string     { return e.name }
func (e *rawExp) Describe() string { return "raw identity probe" }

func (e *rawExp) Run(ctx context.Context, cfg eval.Config) (experiment.Artifact, error) {
	e.runs.Add(1)
	return experiment.Artifact{Name: e.name, Fingerprint: e.fp, Trials: 1}, nil
}

// TestBlankArtifactIdentityIsNormalized pins the extension-path fix: a
// hand-rolled experiment that leaves Fingerprint empty still caches
// correctly — the campaign stamps the cell identity before Put, so the
// warm run is served from the store instead of silently re-simulating
// forever.
func TestBlankArtifactIdentityIsNormalized(t *testing.T) {
	exp := &rawExp{name: "test-raw-blank"}
	experiment.Register(exp)
	st := openStore(t)
	plan := campaign.Plan{Experiments: []string{"test-raw-blank"}, Seed: 1}

	cold, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cold.Executed != 1 || cold.Cells[0].Artifact.Fingerprint != cold.Cells[0].Cell.Fingerprint {
		t.Fatalf("blank identity not normalised: %+v", cold.Cells[0])
	}
	warm, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st})
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warm.Cached != 1 || exp.runs.Load() != 1 {
		t.Errorf("warm run: cached %d, total executions %d, want 1/1", warm.Cached, exp.runs.Load())
	}
}

// TestMismatchedArtifactIdentityErrors pins the other half: an
// experiment stamping a fingerprint that disagrees with the cell's
// aborts with a clear diagnostic instead of filing the record under a
// key the cache never consults.
func TestMismatchedArtifactIdentityErrors(t *testing.T) {
	experiment.Register(&rawExp{name: "test-raw-bad", fp: "feedfacefeed"})
	st := openStore(t)
	plan := campaign.Plan{Experiments: []string{"test-raw-bad"}, Seed: 1}
	_, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st})
	if err == nil || !strings.Contains(err.Error(), "artifact identity") {
		t.Fatalf("mismatched identity should error clearly, got %v", err)
	}
	if n, _ := st.Len(); n != 0 {
		t.Errorf("mismatched artifact must not be persisted, store has %d records", n)
	}
}

// TestExpandDefaults pins the empty-set defaults: all experiments,
// the paper scenario, one implicit override.
func TestExpandDefaults(t *testing.T) {
	registerCounting()
	grid, err := campaign.Expand(campaign.Plan{Seed: 1})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(grid) != len(experiment.Names()) {
		t.Errorf("default grid has %d cells, want one per registered experiment (%d)",
			len(grid), len(experiment.Names()))
	}
	for _, c := range grid {
		if c.Scenario != "paper" || c.Override != "" {
			t.Errorf("default cell %s should run paper scenario with no override", c.ID())
		}
	}
}

// TestOverridesChangeFingerprints pins that each override field that
// alters the simulation alters the store identity too.
func TestOverridesChangeFingerprints(t *testing.T) {
	registerCounting()
	base := campaign.Plan{Experiments: []string{"test-count-a"}, Seed: 1}
	fp := func(p campaign.Plan) string {
		t.Helper()
		grid, err := campaign.Expand(p)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		return grid[len(grid)-1].Fingerprint
	}
	ref := fp(base)
	for label, o := range map[string]campaign.Override{
		"seed":      {Label: "v", Seed: ptr(int64(2))},
		"precision": {Label: "v", PolicyOverride: yield.PolicyOverride{Precision: 0.02}},
		"mono":      {Label: "v", MonoBatch: 123},
		"chiplet":   {Label: "v", ChipletBatch: 123},
		"maxqubits": {Label: "v", MaxQubits: 60},
	} {
		p := base
		p.Overrides = []campaign.Override{o}
		if fp(p) == ref {
			t.Errorf("override %s did not change the config fingerprint", label)
		}
	}
}

// TestParseShard pins the CLI shard syntax and its error cases.
func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want campaign.Shard
	}{
		{"", campaign.Shard{}},
		{"0/2", campaign.Shard{Index: 0, Count: 2}},
		{"3/4", campaign.Shard{Index: 3, Count: 4}},
	} {
		got, err := campaign.ParseShard(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"2", "a/b", "2/2", "-1/2", "0/0", "1/-1"} {
		if _, err := campaign.ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) should error", bad)
		}
	}
}

// TestEventsPhases pins the progress stream: a cold cell emits
// run+done, a warm cell emits cached.
func TestEventsPhases(t *testing.T) {
	resetExecLog()
	st := openStore(t)
	registerCounting()
	plan := campaign.Plan{Experiments: []string{"test-count-a"}, Seed: 1}

	var mu sync.Mutex
	var phases []campaign.Phase
	record := func(e campaign.Event) {
		mu.Lock()
		defer mu.Unlock()
		phases = append(phases, e.Phase)
	}
	if _, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st, Progress: record}); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if want := []campaign.Phase{campaign.PhaseRun, campaign.PhaseDone}; !reflect.DeepEqual(phases, want) {
		t.Errorf("cold cell phases %v, want %v", phases, want)
	}
	phases = nil
	if _, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st, Progress: record}); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if want := []campaign.Phase{campaign.PhaseCached}; !reflect.DeepEqual(phases, want) {
		t.Errorf("warm cell phases %v, want %v", phases, want)
	}
}

// TestCorruptStoreSurfacesDuringRun pins that a corrupt record aborts
// the campaign with the store's diagnostic instead of re-running or
// serving garbage.
func TestCorruptStoreSurfacesDuringRun(t *testing.T) {
	resetExecLog()
	st := openStore(t)
	registerCounting()
	plan := campaign.Plan{Experiments: []string{"test-count-a"}, Seed: 1}
	rep, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	cell := rep.Cells[0].Cell
	path := fmt.Sprintf("%s/%s.json", st.Dir(), cell.Key())
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(context.Background(), plan, campaign.Options{Store: st}); err == nil ||
		!strings.Contains(err.Error(), "corrupt record") {
		t.Errorf("corrupt record should abort the campaign with a clear error, got %v", err)
	}
}

// TestAuditErrorIsCellError: a yield simulation whose collision audit
// fails returns a *yield.AuditError, and the campaign must report it as
// that cell's error, in the event stream and from Run, and persist
// nothing for the cell.
func TestAuditErrorIsCellError(t *testing.T) {
	registerAuditFailing()
	st := store.OpenMem()
	var mu sync.Mutex
	var events []error
	_, err := campaign.Run(context.Background(), campaign.Plan{Experiments: []string{"test-audit-fail"}, Seed: 1},
		campaign.Options{Store: st, Progress: func(e campaign.Event) {
			if e.Phase == campaign.PhaseError {
				mu.Lock()
				events = append(events, e.Err)
				mu.Unlock()
			}
		}})
	var ae *yield.AuditError
	if !errors.As(err, &ae) || *ae != auditFailure {
		t.Fatalf("Run error %v, want the cell's *yield.AuditError", err)
	}
	if len(events) != 1 || !errors.As(events[0], &ae) {
		t.Errorf("error events %v, want one carrying the *yield.AuditError", events)
	}
	if n, _ := st.Len(); n != 0 {
		t.Errorf("store holds %d records after a failed cell, want 0", n)
	}
}

// auditFailure is the error test-audit-fail's yield simulation returns.
var auditFailure = yield.AuditError{Device: "mono-100", Estimator: "importance", Count: 3}

// registerAuditFailing registers an experiment whose yield simulation
// fails its audit, exactly once per test binary.
var registerAuditFailing = sync.OnceFunc(func() {
	experiment.Register(experiment.New("test-audit-fail", "a cell whose yield audit fails",
		func(ctx context.Context, cfg eval.Config) (*report.Table, int, error) {
			err := auditFailure
			return nil, 0, &err
		}))
})

func ptr[T any](v T) *T { return &v }
