// Package cli is the shared front end of the chipletqc commands. A
// command keeps its logic in a testable run(ctx, args, out, errw) error
// and its main is cli.Main(name, run); run binds the shared run flags
// with Bind (each declared here once, with one help string) and renders
// tables with Emit. The trial-policy flags read back as one
// yield.PolicyOverride (Run.Policy); a value no policy can take is a
// usage error (exit 2) that names its flag.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"chipletqc/internal/eval"
	"chipletqc/internal/report"
	"chipletqc/internal/scenario"
	"chipletqc/internal/yield"
)

// ErrUsage marks argument errors already reported on the error stream;
// Main exits 2 without repeating them.
var ErrUsage = errors.New("usage error")

// Main runs a command's core under a context that SIGINT and SIGTERM
// cancel, then exits: 0 on success or -h, 2 on ErrUsage, 1 on any other
// error, which it prints after the command's name.
func Main(name string, run func(ctx context.Context, args []string, out, errw io.Writer) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	switch {
	case err == nil:
		return
	case errors.Is(err, ErrUsage):
		os.Exit(2)
	}
	// Engines named like their command already prefix their errors.
	fmt.Fprintln(os.Stderr, name+":", strings.TrimPrefix(err.Error(), name+": "))
	os.Exit(1)
}

// NewFlagSet returns a flag set that reports parse failures to run
// instead of exiting, with usage and diagnostics on errw.
func NewFlagSet(name string, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(errw)
	return fs
}

// ParseError maps a FlagSet.Parse failure to run's result: nil for -h,
// whose usage the flag set has printed, and ErrUsage otherwise.
func ParseError(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return ErrUsage
}

// Usagef explains a bad invocation on w and returns ErrUsage.
func Usagef(w io.Writer, format string, args ...any) error {
	fmt.Fprintf(w, format+"\n", args...)
	return ErrUsage
}

// Emit writes tb as CSV or as an aligned text table.
func Emit(tb *report.Table, out io.Writer, csv bool) error {
	if csv {
		return tb.WriteCSV(out)
	}
	return tb.WriteText(out)
}

// Flags selects the optional run flags a command binds; -seed and
// -workers are always bound.
type Flags uint8

const (
	// Scenario binds -scenario, the one device scenario to run under.
	Scenario Flags = 1 << iota
	// Quick binds -quick, the smoke-scale batch sizes.
	Quick
	// TrialPolicy binds -precision, -maxtrials, -relprecision and
	// -sampling, the per-run override of the scenario's trial policy.
	TrialPolicy
)

// Run holds the bound run flags; read it after the flag set parses.
// Flags a command did not bind keep their defaults.
type Run struct {
	fs                      *flag.FlagSet
	scenario, sampling      *string
	seed                    *int64
	workers, maxTrials      *int
	quick                   *bool
	precision, relPrecision *float64
}

// Bind declares -seed, -workers and the selected optional run flags on
// fs.
func Bind(fs *flag.FlagSet, with Flags) *Run {
	paper := scenario.PaperName
	r := &Run{
		fs: fs, scenario: &paper, sampling: new(string),
		maxTrials: new(int), quick: new(bool),
		precision: new(float64), relPrecision: new(float64),
	}
	r.seed = fs.Int64("seed", 1, "base RNG seed")
	r.workers = fs.Int("workers", 0, "worker budget (0 = all CPU cores; results identical either way)")
	if with&Scenario != 0 {
		r.scenario = fs.String("scenario", scenario.PaperName, "device scenario `name` to run under (campaign -list -scenarios all lists them)")
	}
	if with&Quick != 0 {
		r.quick = fs.Bool("quick", false, "reduced Monte Carlo batches (smoke scale)")
	}
	if with&TrialPolicy != 0 {
		r.precision = fs.Float64("precision", 0, "adaptive mode: stop each yield simulation once its 95% CI half-width reaches this (0 = the scenario's policy; negative forces fixed batch)")
		r.maxTrials = fs.Int("maxtrials", 0, "adaptive mode trial budget per simulation (0 = the scenario's policy, then the batch size; negative resets)")
		r.relPrecision = fs.Float64("relprecision", 0, "adaptive mode relative target: stop once the CI half-width reaches this fraction of the yield (0 = the scenario's policy; negative disables)")
		r.sampling = fs.String("sampling", "", "yield estimator: plain or importance (\"\" = the scenario's policy; none = unlabelled plain counting)")
	}
	return r
}

// Seed returns -seed.
func (r *Run) Seed() int64 { return *r.seed }

// Workers returns -workers.
func (r *Run) Workers() int { return *r.workers }

// Quick returns -quick.
func (r *Run) Quick() bool { return *r.quick }

// Scenario resolves -scenario against the registry.
func (r *Run) Scenario() (scenario.Scenario, error) { return scenario.Lookup(*r.scenario) }

// Policy returns the trial-policy flags as an override of the
// scenario's policy; a value no policy can take is a usage error that
// names its flag.
func (r *Run) Policy() (yield.PolicyOverride, error) {
	o := yield.PolicyOverride{
		Precision:    *r.precision,
		MaxTrials:    *r.maxTrials,
		RelPrecision: *r.relPrecision,
		Sampling:     *r.sampling,
	}
	if _, err := o.Apply(yield.Policy{}); err != nil {
		return o, Usagef(r.fs.Output(), "%s: -%v", r.fs.Name(), err)
	}
	return o, nil
}

// Eval resolves the flags into a paper-scale experiment config under
// -scenario, with -workers and the trial policy layered on.
func (r *Run) Eval() (eval.Config, error) {
	o, err := r.Policy()
	if err != nil {
		return eval.Config{}, err
	}
	scn, err := r.Scenario()
	if err != nil {
		return eval.Config{}, err
	}
	cfg := eval.ConfigFor(scn, r.Seed())
	cfg.Workers = r.Workers()
	cfg.Policy, err = o.Apply(cfg.Policy)
	return cfg, err
}
