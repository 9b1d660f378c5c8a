package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"chipletqc/internal/cli"
)

// TestRunSingleSmoke exercises the single-system assembly mode at tiny
// scale.
func TestRunSingleSmoke(t *testing.T) {
	var out, errs strings.Builder
	err := run(context.Background(), []string{
		"-chiplet", "20", "-rows", "2", "-cols", "2",
		"-batch", "200", "-workers", "2",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"MCM assembly", "chiplet yield", "post-assembly yield"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
}

// TestRunFig8ThroughRegistry: the -fig8 mode renders the registered
// experiment's artifact, including its self-describing header.
func TestRunFig8ThroughRegistry(t *testing.T) {
	var out, errs strings.Builder
	err := run(context.Background(), []string{
		"-fig8", "-batch", "150", "-mono", "150", "-max", "60", "-workers", "2",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run -fig8: %v", err)
	}
	got := out.String()
	for _, want := range []string{"# experiment: fig8", "Fig. 8", "avg-improvement"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in artifact output:\n%s", want, got)
		}
	}
}

// TestRunCancelled pins ctx propagation through the registry path.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errs strings.Builder
	err := run(ctx, []string{"-fig9", "-batch", "100", "-mono", "100", "-max", "60"}, &out, &errs)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunRejectsBadChiplet(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-chiplet", "33", "-batch", "10"}, &out, &errs); err == nil {
		t.Error("non-catalog chiplet size should return an error")
	}
}

// TestRunRejectsEmptyGrid: a grid with no rows is an error, not a
// panic inside assembly.
func TestRunRejectsEmptyGrid(t *testing.T) {
	var out, errs strings.Builder
	err := run(context.Background(), []string{"-rows", "0", "-cols", "2", "-batch", "50"}, &out, &errs)
	if err == nil || !strings.Contains(err.Error(), "0x2") {
		t.Errorf("err = %v, want the grid validation error", err)
	}
}

// TestRunRejectsNegativeBatch: -batch 0 means the scenario's policy;
// a negative batch is a usage error, not a silent 0.
func TestRunRejectsNegativeBatch(t *testing.T) {
	var out, errs strings.Builder
	if err := run(context.Background(), []string{"-batch", "-5"}, &out, &errs); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("err = %v, want cli.ErrUsage", err)
	}
	if !strings.Contains(errs.String(), "-batch") {
		t.Errorf("error stream should name -batch:\n%s", errs.String())
	}
}
