// Command coign is the Coign ADPS toolchain driver: it instruments
// application binaries, runs profiling scenarios, analyzes profiles,
// writes distributions back into binaries, executes distributed
// applications, regenerates every table and figure of the paper's
// evaluation, and serves the whole pipeline as a persistent job service.
//
// Subcommands are grouped by file (inspect.go holds the instrument /
// profile / analyze file trio, adaptive.go the adapt / overhead / drift /
// cache exhibits, tables.go the tables and figures) and every one that
// needs a session gets it from internal/pipeline, directly or through the
// experiments harness built on it, so the CLI and the job service produce
// identical results for identical specs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/experiments"
)

// command is one coign subcommand. The context is cancelled on SIGINT or
// SIGTERM, so long experiments and the serve loop shut down cleanly. A
// command prints to w, which main makes os.Stdout, so a test can run it
// in-process and read what it printed.
type command struct {
	name    string
	summary string
	run     func(ctx context.Context, args []string, w io.Writer) error
}

var commands = []command{
	{"list", "print the profiling-scenario suite (Table 1)", cmdList},
	{"cut", "profile scenarios and print the chosen distribution", cmdCut},
	{"run", "full experiment for one scenario (Tables 4 and 5 rows)", cmdRun},
	{"table2", "classifier accuracy (Table 2)", classifierTable("table2", experiments.Table2, experiments.PrintTable2)},
	{"table3", "IFCB accuracy vs stack-walk depth (Table 3)", classifierTable("table3", experiments.Table3, experiments.PrintTable3)},
	{"table4", "communication time for all 23 scenarios (Table 4)", scenarioTable("table4", experiments.PrintTable4)},
	{"table5", "execution-time prediction accuracy (Table 5)", scenarioTable("table5", experiments.PrintTable5)},
	{"figures", "distribution figures 4-8", cmdFigures},
	{"chaos", "run one scenario under injected network faults with retries", cmdChaos},
	{"adapt", "re-partition one scenario across network generations", cmdAdapt},
	{"overhead", "instrumentation overhead measurements", cmdOverhead},
	{"drift", "watchdog: detect usage drift from the profiled scenarios", cmdDrift},
	{"cache", "per-interface caching (semi-custom marshaling) effect", cmdCache},
	{"bench-cut", "cut-engine benchmark sweep over synthetic ICC graphs", cmdBenchCut},
	{"report", "static analyses checked against the profiled scenarios: check, coverage, purity, alias", cmdReport},
	{"instrument", "rewrite an application binary for profiling", cmdInstrument},
	{"profile", "run profiling scenarios and write .icc log files", cmdProfile},
	{"analyze", "combine .icc log files and print the chosen distribution", cmdAnalyze},
	{"synth", "generate a synthetic application, or sweep the property harness", cmdSynth},
	{"serve", "run the partitioning job service (HTTP API + worker pool)", cmdServe},
	{"version", "print the build version", cmdVersion},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	if name == "help" || name == "-h" || name == "--help" {
		usage()
		return
	}
	cmd := lookup(name)
	if cmd == nil {
		fmt.Fprintf(os.Stderr, "coign: unknown command %q\n", name)
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := cmd.run(ctx, args, os.Stdout)
	var bad usageError
	switch {
	case errors.Is(err, flag.ErrHelp):
	case errors.As(err, &bad):
		os.Exit(2) // the flag set printed the error and the usage
	case err != nil:
		fmt.Fprintln(os.Stderr, "coign:", err)
		os.Exit(1)
	}
}

// flags is a command's flag set. Every command parses its arguments with
// it, flagless ones too, so a command line it cannot take is refused
// before any work starts, and comes back as an error rather than exiting
// the process: a test runs any command in-process, and main picks the
// exit code.
type flags struct{ *flag.FlagSet }

// newFlags returns the named command's empty flag set.
func newFlags(name string) flags { return flags{flag.NewFlagSet(name, flag.ContinueOnError)} }

// usageError is a command line a command refused: an unknown or malformed
// flag, or a positional argument, which no command reads.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

// parse parses a command's arguments. -h prints the usage and returns
// flag.ErrHelp; anything else the command cannot take prints the error
// and the usage and returns a usageError.
func (fs flags) parse(args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("%s takes no argument, got %q", fs.Name(), fs.Arg(0))
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return usageError{err}
	}
	return nil
}

// lookup returns the named command, or nil if there is none.
func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: coign <command> [flags]")
	fmt.Fprintln(os.Stderr)
	fmt.Fprintln(os.Stderr, "commands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", c.name, c.summary)
	}
}
