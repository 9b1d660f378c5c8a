package store_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chipletqc/internal/store"
	"chipletqc/internal/store/storetest"
)

// TestFSConformance runs the backend conformance suite against the
// filesystem store.
func TestFSConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.Store {
		return openFS(t)
	})
}

// TestMemConformance runs the backend conformance suite against the
// in-memory store.
func TestMemConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.Store {
		return store.OpenMem()
	})
}

func openFS(t *testing.T) *store.FS {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestParseKeyRoundTrip pins the key algebra: ParseKey inverts Key
// even for hyphenated experiment names, because the fingerprint side
// of the last separator is always pure hex.
func TestParseKeyRoundTrip(t *testing.T) {
	for _, tc := range [][2]string{
		{"fig8", "abc123def456"},
		{"tight-thresholds-sweep", "00ff00ff00ff"},
		{"a-b-c-d", "0123456789ab"},
		{"fig-4", "aa"}, // short fingerprints are still hex
	} {
		key := store.Key(tc[0], tc[1])
		name, fingerprint, err := store.ParseKey(key)
		if err != nil {
			t.Errorf("ParseKey(%q): %v", key, err)
			continue
		}
		if name != tc[0] || fingerprint != tc[1] {
			t.Errorf("ParseKey(%q) = (%q, %q), want (%q, %q)", key, name, fingerprint, tc[0], tc[1])
		}
	}
}

// TestParseKeyRejectsNonKeys pins that byte strings which cannot have
// come from Key are rejected instead of mis-split.
func TestParseKeyRejectsNonKeys(t *testing.T) {
	for _, bad := range []string{
		"",
		"noseparator",
		"-abc123",          // empty name
		"fig8-",            // empty fingerprint
		"fig8-NOTHEX",      // uppercase is not a fingerprint
		"fig8-abc123-zzzz", // trailing component not hex
		"fig8-abc 123",     // spaces are not hex
		".hidden-abc123",   // dotfile namespace is reserved for temps
	} {
		if _, _, err := store.ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) should error", bad)
		}
	}
}

// FuzzParseKey pins that ParseKey only accepts strings Key produces:
// every accepted key rebuilds from its parts.
func FuzzParseKey(f *testing.F) {
	for _, k := range []string{"fig8-abc123def456", "tight-thresholds-sweep-00ff", "fig8-", "-abc", ".hidden-abc123", "a/b-ff", "fig8-NOTHEX"} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, k string) {
		name, fingerprint, err := store.ParseKey(k)
		if err != nil {
			return
		}
		if got := store.Key(name, fingerprint); got != k {
			t.Fatalf("ParseKey(%q) = (%q, %q), which rebuilds to %q", k, name, fingerprint, got)
		}
	})
}

// TestFSRecordFileLayout pins the transparent on-disk contract: the
// record lands in the store directory as world-readable JSON.
func TestFSRecordFileLayout(t *testing.T) {
	s := openFS(t)
	path, err := s.Put(storetest.Artifact("fig8", "abc123def456"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if filepath.Dir(path) != s.Dir() {
		t.Errorf("record path %s is outside the store directory %s", path, s.Dir())
	}
	if filepath.Base(path) != "fig8-abc123def456.json" {
		t.Errorf("record file %s does not follow <name>-<fingerprint>.json", path)
	}
	// Records must be readable by other users sharing the store
	// directory (sharded multi-process campaigns) — not CreateTemp's
	// 0600.
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Errorf("record mode = %v (err %v), want 0644", info.Mode().Perm(), err)
	}
}

// TestFSCorruptRecordSurfacesClearError pins the corruption contract:
// a truncated or garbage record is an error naming the file and the
// recovery path, never a silent miss or bogus hit.
func TestFSCorruptRecordSurfacesClearError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		content string
	}{
		{"truncated", `{"name": "fig8", "config_fi`},
		{"garbage", "not json at all"},
		{"empty", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openFS(t)
			path, err := s.Put(storetest.Artifact("fig8", "abc123def456"))
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, ok, err := s.Get("fig8", "abc123def456")
			if err == nil {
				t.Fatalf("corrupt record returned ok=%t with nil error", ok)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error should name the offending file %s: %v", path, err)
			}
			if !strings.Contains(err.Error(), "delete the file") {
				t.Errorf("error should explain recovery: %v", err)
			}
		})
	}
}

// TestFSMismatchedRecordIsAnError pins the self-check: a record whose
// body identifies as a different key (hand-edited, or renamed into the
// wrong slot) is rejected rather than served.
func TestFSMismatchedRecordIsAnError(t *testing.T) {
	s := openFS(t)
	path, err := s.Put(storetest.Artifact("fig8", "abc123def456"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Rename the valid record into a different key's slot.
	wrong := filepath.Join(s.Dir(), store.Key("fig8", "000000000000")+".json")
	if err := os.Rename(path, wrong); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Get("fig8", "000000000000")
	if err == nil {
		t.Fatal("mismatched record should error")
	}
	if !strings.Contains(err.Error(), "identifies as") {
		t.Errorf("error should describe the identity mismatch: %v", err)
	}
}

// TestFSKeysIgnoreStraysAndManifest pins the index scan: temp files,
// non-record files, and the manifest itself never show up as keys.
func TestFSKeysIgnoreStraysAndManifest(t *testing.T) {
	s := openFS(t)
	if _, err := s.Put(storetest.Artifact("fig4", "aaaa00000000")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil { // writes manifest.json
		t.Fatalf("Close: %v", err)
	}
	for _, stray := range []string{".hidden.tmp-1", "notes.txt", "not-a-record-NOHEX.json"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), stray), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := store.Open(s.Dir())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	keys, err := reopened.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != 1 || keys[0] != "fig4-aaaa00000000" {
		t.Errorf("Keys = %v, want [fig4-aaaa00000000]", keys)
	}
}

// TestFSOpenIsNotFooledByStaleManifest pins the authority order: the
// record files are the truth and a manifest describing records that no
// longer exist (or missing records that do) is reconciled on Open.
func TestFSOpenIsNotFooledByStaleManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keepPath, err := s.Put(storetest.Artifact("fig4", "aaaa00000000"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	dropPath, err := s.Put(storetest.Artifact("fig8", "bbbb00000000"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Mutate the directory behind the manifest's back: delete one
	// record, plant another.
	if err := os.Remove(dropPath); err != nil {
		t.Fatal(err)
	}
	if err := copyFile(t, keepPath, filepath.Join(dir, "x.json")); err != nil {
		t.Fatal(err)
	}
	planted := storetest.Artifact("eq1", "cccc00000000")
	tmp, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plantedPath, err := tmp.Put(planted)
	if err != nil {
		t.Fatal(err)
	}
	if err := copyFile(t, plantedPath, filepath.Join(dir, "eq1-cccc00000000.json")); err != nil {
		t.Fatal(err)
	}

	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	keys, err := reopened.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	want := []string{"eq1-cccc00000000", "fig4-aaaa00000000"}
	if len(keys) != 2 || keys[0] != want[0] || keys[1] != want[1] {
		t.Errorf("Keys after reconcile = %v, want %v", keys, want)
	}
	if reopened.Has("fig8", "bbbb00000000") {
		t.Error("Has reports the deleted record")
	}
	if !reopened.Has("eq1", "cccc00000000") {
		t.Error("Has misses the planted record")
	}
}

// TestFSOpenSweepsStaleTemps pins the temp-leak fix: a Put interrupted
// between CreateTemp and Rename leaves a dotfile temp; Open removes it
// once it is old enough that no live Put can own it, and leaves young
// temps (a concurrent sibling's in-flight Put) alone.
func TestFSOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".fig8-abc123def456.json.tmp-12345")
	fresh := filepath.Join(dir, ".fig4-aaaa00000000.json.tmp-67890")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("{half a reco"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp %s survived Open (stat err %v)", stale, err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp %s should survive Open: %v", fresh, err)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Errorf("temps must never be records: Len = %d (err %v)", n, err)
	}
}

// TestFSIndexSurvivesReopen pins manifest persistence: a reopened
// store knows its records without the caller re-Putting anything, and
// Has answers without the manifest ever being deleted out from under
// it.
func TestFSIndexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(storetest.Artifact("fig4", "aaaa00000000")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("Close should write manifest.json: %v", err)
	}
	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if !reopened.Has("fig4", "aaaa00000000") {
		t.Error("reopened store lost its record")
	}
	if n, err := reopened.Len(); err != nil || n != 1 {
		t.Errorf("reopened Len = %d (err %v), want 1", n, err)
	}
}

// copyFile copies src to dst for test fixtures.
func copyFile(t *testing.T, src, dst string) error {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, raw, 0o644)
}
