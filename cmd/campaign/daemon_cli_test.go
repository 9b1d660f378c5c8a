package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chipletqc/internal/cli"
	"chipletqc/internal/daemon"
)

// TestModeFlagConflicts pins the CLI's refusal to silently drop flags:
// every row is an invocation that used to parse and then ignore part
// of what the user asked for, and must now exit 2 naming the conflict.
func TestModeFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want string // substring the usage error must contain
	}{
		{"gc-keep without gc", []string{"-store", dir, "-gc-keep", "5"}, "configure -gc"},
		{"gc-max-bytes without gc", []string{"-store", dir, "-gc-max-bytes", "1024"}, "configure -gc"},
		{"shard with verify", []string{"-store", dir, "-verify", "-shard", "0/2"}, "-shard"},
		{"resume with prune", []string{"-store", dir, "-prune", "-resume=false"}, "-resume"},
		{"shard with gc", []string{"-store", dir, "-gc", "-gc-keep", "5", "-shard", "0/2"}, "-shard"},
		{"progress with serve", []string{"-serve", "-progress"}, "-progress"},
		{"shard with submit", []string{"-submit", "-shard", "0/2"}, "-shard"},
		{"plan flags with status", []string{"-status", "-experiments", "fig2"}, "-experiments"},
		{"addr with plain campaign", []string{"-addr", ":9", "-quick", "-experiments", "fig2", "-store", ""}, "-addr"},
		{"client verb with admin verb", []string{"-submit", "-verify", "-store", dir}, "separately"},
		{"serve with client verb", []string{"-serve", "-submit"}, "-serve"},
		{"two client verbs", []string{"-submit", "-job", "job-000001"}, "exactly one client verb"},
		{"out with serve", []string{"-serve", "-out", dir}, "-out"},
		{"out with submit", []string{"-submit", "-out", dir}, "-out"},
		{"out with verify", []string{"-store", dir, "-verify", "-out", dir}, "-out"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errs, err := runArgs(t, context.Background(), tc.args...)
			if !errors.Is(err, cli.ErrUsage) {
				t.Fatalf("err = %v, want cli.ErrUsage", err)
			}
			if !strings.Contains(errs, tc.want) {
				t.Errorf("usage error does not name the conflict %q:\n%s", tc.want, errs)
			}
		})
	}
}

// TestPinKeepsItsCampaignFlags is the counter-case: -pin addresses the
// plan's (sharded) grid, so plan flags and -shard stay legal with it.
func TestPinKeepsItsCampaignFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	out, errs, err := runArgs(t, context.Background(),
		"-store", dir, "-pin", "nightly", "-quick", "-experiments", "fig2", "-shard", "0/2")
	if err != nil {
		t.Fatalf("err = %v (stderr %q), want -pin to accept plan flags and -shard", err, errs)
	}
	if !strings.Contains(out, "pinned 0 of") {
		t.Errorf("pin output wrong:\n%s", out)
	}
}

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestServeSubmitWatchFetchShutdown drives the daemon through the CLI
// exactly as a user would: start -serve, submit a plan twice (second
// run fully cached), read a job, fetch an artifact by fingerprint,
// check status, and drain with -shutdown.
func TestServeSubmitWatchFetchShutdown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	serveErr := make(chan error, 1)
	go func() {
		_, _, err := runArgs(t, ctx, "-serve", "-addr", addr, "-store", dir, "-workers", "2")
		serveErr <- err
	}()
	waitForDaemon(t, ctx, addr, serveErr)

	plan := []string{"-quick", "-experiments", "fig2,eq1", "-scenarios", "paper,future-fab", "-addr", addr}

	out, _, err := runArgs(t, ctx, append([]string{"-submit", "-watch"}, plan...)...)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if !strings.Contains(out, "done, 4 cells, 4 executed, 0 cached") {
		t.Errorf("first submit status wrong:\n%s", out)
	}

	out, _, err = runArgs(t, ctx, append([]string{"-submit", "-watch", "-json"}, plan...)...)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	var st daemon.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("second submit did not print JSON: %v\n%s", err, out)
	}
	if st.Executed != 0 || st.Cached != 4 {
		t.Errorf("second submit executed %d cached %d, want 0/4", st.Executed, st.Cached)
	}
	if len(st.Cells) != 4 {
		t.Fatalf("status carries %d cells, want 4", len(st.Cells))
	}

	out, _, err = runArgs(t, ctx, "-job", st.ID, "-addr", addr)
	if err != nil {
		t.Fatalf("-job: %v", err)
	}
	if !strings.Contains(out, st.ID+": done") {
		t.Errorf("-job output wrong:\n%s", out)
	}

	cell := st.Cells[0]
	out, _, err = runArgs(t, ctx, "-fetch", cell.Experiment+"/"+cell.Fingerprint, "-addr", addr)
	if err != nil {
		t.Fatalf("-fetch: %v", err)
	}
	if !strings.Contains(out, cell.Fingerprint) {
		t.Errorf("-fetch output does not render the artifact (fingerprint missing):\n%s", out)
	}
	if _, _, err := runArgs(t, ctx, "-fetch", cell.Experiment+"/ffffffffffff", "-addr", addr); err == nil {
		t.Error("-fetch of a missing artifact succeeded")
	}

	out, _, err = runArgs(t, ctx, "-status", "-addr", addr)
	if err != nil {
		t.Fatalf("-status: %v", err)
	}
	if !strings.Contains(out, "2 done") || !strings.Contains(out, "store: 4 records") {
		t.Errorf("-status output wrong:\n%s", out)
	}

	if _, _, err := runArgs(t, ctx, "-shutdown", "-addr", addr); err != nil {
		t.Fatalf("-shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("-serve exited %v after -shutdown, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("-serve did not exit after -shutdown")
	}
}

// waitForDaemon polls -status until the daemon answers.
func waitForDaemon(t *testing.T, ctx context.Context, addr string, serveErr <-chan error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-serveErr:
			t.Fatalf("-serve exited during startup: %v", err)
		default:
		}
		if _, _, err := runArgs(t, ctx, "-status", "-addr", addr); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never answered -status")
}
