package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

// cmdAlias runs the static alias & shared-state analysis over one or all
// applications: compute the points-to sets of every component's opaque
// payloads, report which class pairs truly share mutable state, refine
// the static constraint set with that knowledge, and verify zero-miss
// against the profiled scenarios (every observed non-remotable call must
// have been predicted).
func cmdAlias(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("alias", flag.ExitOnError)
	appName := fs.String("app", "all", "application to analyze, 'quickstart', or 'all'")
	scens := fs.String("scenarios", "", "comma-separated scenario override (default: the app's training suite)")
	jsonOut := fs.Bool("json", false, "emit the alias rows as JSON on stdout")
	failOn := fs.String("fail-on", "", "fail (exit nonzero) on: 'miss'")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *failOn != "" && *failOn != "miss" {
		return fmt.Errorf("unknown -fail-on condition %q (supported: miss)", *failOn)
	}
	apps, scenarios, err := appsAndScenarios(*appName, *scens, experiments.AliasApps())
	if err != nil {
		return err
	}

	var rows []*experiments.AliasRow
	if *appName == "all" {
		all, err := experiments.AliasAll(ctx)
		if err != nil {
			return err
		}
		rows = all
	} else {
		for _, name := range apps {
			row, err := experiments.Alias(ctx, name, scenarios)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	} else {
		for _, row := range rows {
			if err := row.Report.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("  constraints: %d pair-wise baseline -> %d refined, %d aliasing pairs added\n",
				row.BaselinePairs, row.RefinedPairs, row.AliasPairs)
			if len(row.Scenarios) > 0 {
				fmt.Printf("  profiled %v: %d welded class pairs baseline -> %d refined\n",
					row.Scenarios, row.BaselineWelds, row.RefinedWelds)
				fmt.Printf("  verifier: %d alias misses, %d warnings\n", row.Misses, row.Warnings)
			}
			fmt.Println()
		}
	}

	if *failOn == "miss" {
		var failed []string
		for _, row := range rows {
			if row.Misses > 0 {
				failed = append(failed, fmt.Sprintf("%s (%d)", row.App, row.Misses))
			}
		}
		if len(failed) > 0 {
			return fmt.Errorf("alias misses: %s", strings.Join(failed, ", "))
		}
	}
	return nil
}
