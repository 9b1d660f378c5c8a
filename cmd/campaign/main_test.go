package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chipletqc/internal/cli"
	"chipletqc/internal/experiment"
	"chipletqc/internal/scenario"
	"chipletqc/internal/store"
)

// runArgs invokes the CLI core and returns its streams.
func runArgs(t *testing.T, ctx context.Context, args ...string) (string, string, error) {
	t.Helper()
	var out, errs strings.Builder
	err := run(ctx, args, &out, &errs)
	return out.String(), errs.String(), err
}

// TestColdThenWarmRun pins the end-to-end cache contract through the
// CLI: a 2×2 grid executes fully once, then is served entirely from
// the store.
func TestColdThenWarmRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"-quick", "-experiments", "fig2,eq1", "-scenarios", "paper,future-fab", "-store", dir}

	out, _, err := runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if !strings.Contains(out, "4 cells, 4 executed, 0 cached") {
		t.Errorf("cold run summary wrong:\n%s", out)
	}

	out, _, err = runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if !strings.Contains(out, "4 cells, 0 executed, 4 cached") {
		t.Errorf("warm run summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "cached     fig2@future-fab (store hit)") {
		t.Errorf("warm run should list per-cell store hits:\n%s", out)
	}
}

// TestShardedRunsCoverGrid pins -shard: 0/2 and 1/2 together fill the
// store so a subsequent unsharded run executes nothing.
func TestShardedRunsCoverGrid(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base := []string{"-quick", "-experiments", "fig2,eq1", "-scenarios", "paper,future-fab", "-store", dir}

	for _, shard := range []string{"0/2", "1/2"} {
		out, _, err := runArgs(t, context.Background(), append(base, "-shard", shard)...)
		if err != nil {
			t.Fatalf("shard %s: %v", shard, err)
		}
		if !strings.Contains(out, "2 cells, 2 executed, 0 cached") ||
			!strings.Contains(out, "shard "+shard+" of a 4-cell grid") {
			t.Errorf("shard %s summary wrong:\n%s", shard, out)
		}
	}
	out, _, err := runArgs(t, context.Background(), base...)
	if err != nil {
		t.Fatalf("unsharded pass: %v", err)
	}
	if !strings.Contains(out, "4 cells, 0 executed, 4 cached") {
		t.Errorf("shards did not fill the store:\n%s", out)
	}
}

// TestResumeFalseForcesReexecution pins -resume=false: a warm store is
// ignored and overwritten.
func TestResumeFalseForcesReexecution(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base := []string{"-quick", "-experiments", "fig2", "-store", dir}
	if _, _, err := runArgs(t, context.Background(), base...); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	out, _, err := runArgs(t, context.Background(), append(base, "-resume=false")...)
	if err != nil {
		t.Fatalf("forced run: %v", err)
	}
	if !strings.Contains(out, "1 cells, 1 executed, 0 cached") {
		t.Errorf("-resume=false should re-execute:\n%s", out)
	}
}

// TestJSONReport pins -json: a machine-readable report with the
// executed/cached counts the CI smoke job asserts on.
func TestJSONReport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"-quick", "-experiments", "fig2", "-scenarios", "paper,future-fab", "-store", dir, "-json"}
	out, _, err := runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep struct {
		GridSize int `json:"grid_size"`
		Total    int `json:"total"`
		Executed int `json:"executed"`
		Cached   int `json:"cached"`
		Cells    []struct {
			Cell struct {
				Experiment  string `json:"experiment"`
				Scenario    string `json:"scenario"`
				Fingerprint string `json:"config_fingerprint"`
			} `json:"cell"`
			Cached bool `json:"cached"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out)
	}
	if rep.GridSize != 2 || rep.Total != 2 || rep.Executed != 2 || rep.Cached != 0 {
		t.Errorf("report counts wrong: %+v", rep)
	}
	if len(rep.Cells) != 2 || rep.Cells[0].Cell.Fingerprint == "" {
		t.Errorf("report cells missing identity: %+v", rep.Cells)
	}
	if rep.Cells[0].Cell.Fingerprint == rep.Cells[1].Cell.Fingerprint {
		t.Error("different scenarios should fingerprint differently")
	}
}

// TestListDryRun pins -list: the grid with store hit/miss status, no
// execution.
func TestListDryRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base := []string{"-quick", "-experiments", "fig2,eq1", "-store", dir}
	out, _, err := runArgs(t, context.Background(), append(base, "-list")...)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if !strings.Contains(out, "fig2@paper") || !strings.Contains(out, "2 cells (grid 2), 0 store hits") {
		t.Errorf("cold -list output wrong:\n%s", out)
	}
	if _, _, err := runArgs(t, context.Background(), base...); err != nil {
		t.Fatalf("fill run: %v", err)
	}
	out, _, err = runArgs(t, context.Background(), append(base, "-list")...)
	if err != nil {
		t.Fatalf("warm list: %v", err)
	}
	if !strings.Contains(out, "2 store hits") {
		t.Errorf("warm -list should report hits:\n%s", out)
	}
}

// TestProgressStream pins -progress: per-cell events on the error
// stream, report on the output stream.
func TestProgressStream(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	_, errs, err := runArgs(t, context.Background(),
		"-quick", "-experiments", "fig2", "-store", dir, "-progress")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(errs, "run fig2@paper") || !strings.Contains(errs, "done fig2@paper") {
		t.Errorf("progress events missing from error stream:\n%s", errs)
	}
}

// TestErrorPaths pins the CLI failure modes: unknown names, bad shard
// syntax, unknown flags, and -h.
func TestErrorPaths(t *testing.T) {
	if _, _, err := runArgs(t, context.Background(), "-experiments", "nope", "-store", ""); err == nil ||
		!strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown experiment should list known names, got %v", err)
	}
	if _, _, err := runArgs(t, context.Background(), "-shard", "2"); err == nil ||
		!strings.Contains(err.Error(), "i/n") {
		t.Errorf("bad shard syntax should explain the form, got %v", err)
	}
	out, errs, err := runArgs(t, context.Background(), "-definitely-not-a-flag")
	if !errors.Is(err, cli.ErrUsage) {
		t.Errorf("unknown flag: err = %v, want cli.ErrUsage", err)
	}
	if out != "" {
		t.Errorf("flag diagnostics leaked into the report stream:\n%s", out)
	}
	if !strings.Contains(errs, "definitely-not-a-flag") {
		t.Errorf("error stream should name the bad flag:\n%s", errs)
	}
	if _, errs, err := runArgs(t, context.Background(), "-h"); err != nil {
		t.Errorf("-h should not be an error, got %v", err)
	} else if !strings.Contains(errs, "-shard") {
		t.Errorf("usage should document -shard:\n%s", errs)
	}
}

// TestNoStoreRuns pins -store "": the campaign runs without
// persistence.
func TestNoStoreRuns(t *testing.T) {
	out, _, err := runArgs(t, context.Background(), "-quick", "-experiments", "fig2", "-store", "")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "1 cells, 1 executed, 0 cached (no store)") {
		t.Errorf("store-less summary wrong:\n%s", out)
	}
}

// fillStore runs a tiny campaign into dir and returns one record path.
func fillStore(t *testing.T, dir string) string {
	t.Helper()
	if _, _, err := runArgs(t, context.Background(),
		"-quick", "-experiments", "fig2", "-store", dir); err != nil {
		t.Fatalf("fill run: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "fig2-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected one fig2 record in %s, got %v (err %v)", dir, matches, err)
	}
	return matches[0]
}

// TestVerifyBackupRestoreCycle pins the admin workflow end to end: a
// clean store verifies, a corrupted record fails -verify naming the
// file, and -restore from a -backup heals it.
func TestVerifyBackupRestoreCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	bak := filepath.Join(t.TempDir(), "bak")
	record := fillStore(t, dir)

	out, _, err := runArgs(t, context.Background(), "-store", dir, "-verify")
	if err != nil {
		t.Fatalf("verify of a clean store failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 issues") {
		t.Errorf("clean verify output wrong:\n%s", out)
	}

	out, _, err = runArgs(t, context.Background(), "-store", dir, "-backup", bak)
	if err != nil {
		t.Fatalf("backup: %v", err)
	}
	if !strings.Contains(out, "backed up 1 records") {
		t.Errorf("backup output wrong:\n%s", out)
	}

	if err := os.WriteFile(record, []byte("{corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err = runArgs(t, context.Background(), "-store", dir, "-verify")
	if err == nil {
		t.Fatalf("verify should fail on a corrupt store:\n%s", out)
	}
	if !strings.Contains(out, record) {
		t.Errorf("verify should name the corrupt file %s:\n%s", record, out)
	}

	if _, _, err = runArgs(t, context.Background(), "-store", dir, "-restore", bak); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if out, _, err = runArgs(t, context.Background(), "-store", dir, "-verify"); err != nil {
		t.Fatalf("verify after restore: %v\n%s", err, out)
	}
	// The healed store serves the campaign without re-executing.
	out, _, err = runArgs(t, context.Background(), "-quick", "-experiments", "fig2", "-store", dir)
	if err != nil {
		t.Fatalf("warm run after restore: %v", err)
	}
	if !strings.Contains(out, "1 cells, 0 executed, 1 cached") {
		t.Errorf("restored store should serve the campaign:\n%s", out)
	}
}

// TestPruneRemovesPlantedJunk pins -prune through the CLI: a corrupt
// record and a stray file disappear; the next run re-executes only the
// pruned cell.
func TestPruneRemovesPlantedJunk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	record := fillStore(t, dir)
	if err := os.WriteFile(record, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Only .json strays are pruned — arbitrary user files are left alone.
	if err := os.WriteFile(filepath.Join(dir, "NOT-A-RECORD.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runArgs(t, context.Background(), "-store", dir, "-prune")
	if err != nil {
		t.Fatalf("prune: %v", err)
	}
	if !strings.Contains(out, "1 broken records, 1 strays") {
		t.Errorf("prune summary wrong:\n%s", out)
	}
	if _, err := os.Stat(record); !os.IsNotExist(err) {
		t.Errorf("pruned record still present: %v", err)
	}
	if out, _, err := runArgs(t, context.Background(), "-store", dir, "-verify"); err != nil {
		t.Errorf("verify after prune: %v\n%s", err, out)
	}
}

// TestGCPinCycle pins -pin/-gc/-unpin: a pinned cell survives an
// evict-everything GC, and -unpin releases it.
func TestGCPinCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base := []string{"-quick", "-experiments", "fig2,eq1", "-store", dir}
	if _, _, err := runArgs(t, context.Background(), base...); err != nil {
		t.Fatalf("fill run: %v", err)
	}
	pinArgs := []string{"-quick", "-experiments", "fig2", "-store", dir, "-pin", "keep"}
	out, _, err := runArgs(t, context.Background(), pinArgs...)
	if err != nil {
		t.Fatalf("pin: %v", err)
	}
	if !strings.Contains(out, `pinned 1 of 1 cells under "keep"`) {
		t.Errorf("pin output wrong:\n%s", out)
	}
	out, _, err = runArgs(t, context.Background(), "-store", dir, "-gc", "-gc-keep", "1")
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if !strings.Contains(out, "evicted eq1-") || strings.Contains(out, "evicted fig2-") {
		t.Errorf("gc should evict the unpinned eq1 record only:\n%s", out)
	}
	out, _, err = runArgs(t, context.Background(), "-store", dir, "-unpin", "keep")
	if err != nil {
		t.Fatalf("unpin: %v", err)
	}
	if !strings.Contains(out, `released 1 pins labelled "keep"`) {
		t.Errorf("unpin output wrong:\n%s", out)
	}
}

// TestAdminVerbValidation pins the admin UX guards: verbs are mutually
// exclusive and need a store.
func TestAdminVerbValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, errs, err := runArgs(t, context.Background(), "-store", dir, "-verify", "-prune"); err == nil {
		t.Error("two admin verbs should be a usage error")
	} else if !strings.Contains(errs, "exactly one admin verb") {
		t.Errorf("error stream should explain the verb rule:\n%s", errs)
	}
	if _, errs, err := runArgs(t, context.Background(), "-store", "", "-verify"); err == nil {
		t.Error("admin verb without a store should be a usage error")
	} else if !strings.Contains(errs, "need -store") {
		t.Errorf("error stream should demand -store:\n%s", errs)
	}
}

// TestGenerateFlagRunsAGeneratedGrid pins -generate: the grid's
// scenarios register, run like any preset, and cache by fingerprint.
func TestGenerateFlagRunsAGeneratedGrid(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"-quick", "-experiments", "genyield", "-store", dir,
		"-generate", "topos=hex-1x2-q6,square-1x2-q6;sigmas=0.004,0.008"}

	out, _, err := runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("generated grid run: %v", err)
	}
	if !strings.Contains(out, "4 cells, 4 executed, 0 cached") {
		t.Errorf("cold generated run summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "genyield@gen/hex-1x2-q6/sigma0.004") {
		t.Errorf("generated scenario names missing from the cell list:\n%s", out)
	}
	out, _, err = runArgs(t, context.Background(), args...)
	if err != nil {
		t.Fatalf("warm generated run: %v", err)
	}
	if !strings.Contains(out, "4 cells, 0 executed, 4 cached") {
		t.Errorf("warm generated run summary wrong:\n%s", out)
	}

	if _, _, err := runArgs(t, context.Background(),
		"-quick", "-generate", "topos=;sigmas=0.004"); err == nil {
		t.Error("empty -generate topos should fail")
	}
}

// readArtifact decodes one -out JSON file.
func readArtifact(t *testing.T, path string) experiment.Artifact {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing artifact: %v", err)
	}
	var a experiment.Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatalf("%s is not a valid Artifact: %v", path, err)
	}
	return a
}

// TestOutWritesSubsetArtifacts pins -out: each selected cell leaves a
// text rendering and a complete Artifact JSON, and nothing else.
func TestOutWritesSubsetArtifacts(t *testing.T) {
	dir := t.TempDir()
	out, errs, err := runArgs(t, context.Background(),
		"-quick", "-experiments", "fig2,eq1", "-store", "", "-out", dir)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errs)
	}
	if !strings.Contains(out, "artifacts written to "+dir) {
		t.Errorf("summary should name the output directory:\n%s", out)
	}
	for _, name := range []string{"fig2", "eq1"} {
		id := name + "@paper"
		if _, err := os.Stat(filepath.Join(dir, id+".txt")); err != nil {
			t.Errorf("missing text artifact: %v", err)
		}
		a := readArtifact(t, filepath.Join(dir, id+".json"))
		if a.Name != name || a.Fingerprint == "" || a.Payload == nil {
			t.Errorf("%s.json incomplete: %+v", id, a)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 4 {
		t.Errorf("expected 4 artifact files, found %d", len(entries))
	}
}

// TestOutRecordsScenario: an artifact written under a non-paper
// scenario records that scenario.
func TestOutRecordsScenario(t *testing.T) {
	dir := t.TempDir()
	if _, errs, err := runArgs(t, context.Background(),
		"-quick", "-experiments", "eq1", "-scenarios", "future-fab", "-store", "", "-out", dir); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errs)
	}
	a := readArtifact(t, filepath.Join(dir, "eq1@future-fab.json"))
	if a.Scenario != "future-fab" || a.ScenarioFingerprint == "" {
		t.Errorf("artifact does not record the scenario: %+v", a)
	}
}

// TestOutMatchesStore: the JSON -out writes for a cell decodes to the
// artifact the store holds under that cell's key, both when the cell
// executes and when a warm run serves it from the store.
func TestOutMatchesStore(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	for _, pass := range []string{"cold", "warm"} {
		dir := filepath.Join(t.TempDir(), pass)
		if _, errs, err := runArgs(t, context.Background(),
			"-quick", "-experiments", "fig2", "-store", storeDir, "-out", dir); err != nil {
			t.Fatalf("%s run: %v\nstderr: %s", pass, err, errs)
		}
		written := readArtifact(t, filepath.Join(dir, "fig2@paper.json"))
		st, err := store.Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		stored, ok, err := st.Get("fig2", written.Fingerprint)
		st.Close()
		if err != nil || !ok {
			t.Fatalf("%s: store.Get(fig2, %s) = ok %v, err %v", pass, written.Fingerprint, ok, err)
		}
		if !reflect.DeepEqual(written, stored) {
			t.Errorf("%s: -out JSON differs from the stored artifact:\nout:   %+v\nstore: %+v", pass, written, stored)
		}
	}
}

// TestListShowsExperimentCatalog pins -list: the experiment catalog
// appears above the cell grid, and -scenarios all expands the grid to
// every experiment under every scenario.
func TestListShowsExperimentCatalog(t *testing.T) {
	out, _, err := runArgs(t, context.Background(), "-list", "-scenarios", "all", "-store", "")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, name := range []string{"fig1", "fig4", "fig8", "fig9", "fig10", "table2", "eq1"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
	if want := len(experiment.Names()) * len(scenario.Names()); !strings.Contains(out, fmt.Sprintf("(grid %d)", want)) {
		t.Errorf("-scenarios all should expand to a %d-cell grid:\n%s", want, out)
	}
}

// TestListShowsScenarioCatalog pins -list with -scenarios all: every
// registered scenario is listed with its fingerprint.
func TestListShowsScenarioCatalog(t *testing.T) {
	out, _, err := runArgs(t, context.Background(), "-list", "-scenarios", "all", "-store", "")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, name := range []string{"paper", "future-fab", "improved-links", "relaxed-thresholds", "FINGERPRINT"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
	for _, s := range scenario.All() {
		if !strings.Contains(out, s.Fingerprint()) {
			t.Errorf("-list output missing scenario %s's fingerprint %s", s.Name, s.Fingerprint())
		}
	}
}

// TestUnknownExperiment: naming an unregistered experiment fails and
// the error lists the known names.
func TestUnknownExperiment(t *testing.T) {
	_, _, err := runArgs(t, context.Background(), "-experiments", "fig99", "-store", "")
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") ||
		!strings.Contains(err.Error(), "fig1") {
		t.Errorf("err = %v, want unknown-experiment error listing known names", err)
	}
}

// TestUnknownScenario: naming an unregistered scenario fails and the
// error lists the known names.
func TestUnknownScenario(t *testing.T) {
	_, _, err := runArgs(t, context.Background(), "-scenarios", "warp-core", "-store", "")
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") ||
		!strings.Contains(err.Error(), "paper") {
		t.Errorf("err = %v, want unknown-scenario error listing known names", err)
	}
}

// TestBadFlagIsUsageError: an unknown flag is reported as cli.ErrUsage
// so the binary exits with the usage status.
func TestBadFlagIsUsageError(t *testing.T) {
	if _, _, err := runArgs(t, context.Background(), "-nope"); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("err = %v, want cli.ErrUsage", err)
	}
}

// TestNonFinitePolicyIsUsageError: the trial-policy flags are checked
// before any cell is expanded, so a NaN or an unknown estimator never
// reaches a plan.
func TestNonFinitePolicyIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-precision", "NaN"},
		{"-relprecision", "+Inf"},
		{"-sampling", "bogus"},
	} {
		args = append(args, "-list", "-quick", "-experiments", "fig2", "-store", "")
		if _, _, err := runArgs(t, context.Background(), args...); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("%v: err = %v, want cli.ErrUsage", args, err)
		}
	}
}

// TestCancelledContext pins ctx propagation: a cancelled run returns
// context.Canceled instead of completing.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := runArgs(t, ctx, "-quick", "-experiments", "fig8", "-store", "", "-out", t.TempDir())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
