package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// cmdBenchCut sweeps the cut engine over synthetic ICC graphs, printing a
// table and optionally writing the machine-readable report that CI
// archives. The run fails when any algorithm disagrees with the oracle,
// so the benchmark doubles as a correctness gate.
func cmdBenchCut(_ context.Context, args []string, w io.Writer) error {
	fs := newFlags("bench-cut")
	sizes := fs.String("sizes", "1000,3000,10000,30000,100000,300000,1000000", "comma-separated node counts")
	seed := fs.Int64("seed", 1, "workload seed (same seed, same graphs)")
	degree := fs.Int("degree", 0, "average attachment degree (0 = generator default)")
	oracleMax := fs.Int("oracle-max", 30000, "largest size the Edmonds-Karp oracle runs at (0 = default cap)")
	repeat := fs.Int("repeat", 3, "timed repetitions per algorithm (min and mean reported)")
	jsonPath := fs.String("json", "", "write the report as JSON to this file")
	quiet := fs.Bool("q", false, "suppress per-size progress")
	if err := fs.parse(args); err != nil {
		return err
	}
	cfg := experiments.CutBenchConfig{
		Seed:      *seed,
		AvgDegree: *degree,
		OracleMax: *oracleMax,
		Repeat:    *repeat,
	}
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			return fmt.Errorf("bad -sizes entry %q", s)
		}
		cfg.Sizes = append(cfg.Sizes, n)
	}
	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	rep, err := experiments.RunCutBench(cfg, progress)
	if err != nil {
		return err
	}
	experiments.PrintCutBench(w, rep)
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *jsonPath)
	}
	return nil
}
