package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/purity"
	"repro/internal/reach"
	"repro/internal/scenario"
)

// appsAndScenarios resolves the -app / -scenarios flags the report
// commands share: "all" sweeps the given population, and a scenario
// override needs a single application to apply to.
func appsAndScenarios(appName, scens string, all []string) (apps, scenarios []string, err error) {
	apps = all
	if appName != "all" {
		apps = []string{appName}
	}
	if scens != "" {
		if len(apps) != 1 {
			return nil, nil, fmt.Errorf("-scenarios requires a single -app")
		}
		scenarios = strings.Split(scens, ",")
	}
	return apps, scenarios, nil
}

// cmdCoverage diffs the static activation-reachability graph of one or
// all applications against their profiled training scenarios: which
// statically possible activation sites and ICC edges the scenarios never
// exercised, and which observations the static metadata failed to
// predict.
func cmdCoverage(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("coverage", flag.ExitOnError)
	appName := fs.String("app", "all", "application to measure, 'quickstart', or 'all'")
	scens := fs.String("scenarios", "", "comma-separated scenario override (default: the app's training suite)")
	jsonOut := fs.Bool("json", false, "emit the coverage reports as JSON on stdout")
	failUnder := fs.Float64("fail-under", 0, "fail (exit nonzero) when combined coverage is below this percentage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	apps, scenarios, err := appsAndScenarios(*appName, *scens, scenario.Apps())
	if err != nil {
		return err
	}

	var rows []*experiments.CoverageRow
	for _, name := range apps {
		row, err := experiments.Coverage(name, scenarios)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}

	if *jsonOut {
		reports := make([]*reach.Coverage, len(rows))
		for i, row := range rows {
			reports[i] = row.Coverage
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		for _, row := range rows {
			if err := row.Coverage.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("  (profiled %v; %d reachable classes; %d uncovered edges installable as co-location constraints)\n\n",
				row.Scenarios, row.Reachable, row.Installed)
		}
	}

	var failed []string
	for _, row := range rows {
		if row.Percent < *failUnder {
			failed = append(failed, fmt.Sprintf("%s %.1f%%", row.App, row.Percent))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("coverage below %.1f%%: %s", *failUnder, strings.Join(failed, ", "))
	}
	return nil
}

// cmdPurity runs the static purity & state-mutability analysis over one
// or all applications: classify every method from the binary's state
// records, fold in profiled call/write evidence to grade each component
// stateless/read-mostly/stateful, verify the static claims against
// observed mutations, and compare the plain cut with the
// replication-aware one.
func cmdPurity(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("purity", flag.ExitOnError)
	appName := fs.String("app", "all", "application to analyze, 'quickstart', or 'all'")
	scens := fs.String("scenarios", "", "comma-separated scenario override (default: the app's training suite)")
	theta := fs.Float64("theta", 0, fmt.Sprintf("read-mostly write-fraction threshold (0 selects %.2f)", purity.DefaultTheta))
	jsonOut := fs.Bool("json", false, "emit the purity rows as JSON on stdout")
	failOn := fs.String("fail-on", "", "fail (exit nonzero) on: 'misclassified'")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *failOn != "" && *failOn != "misclassified" {
		return fmt.Errorf("unknown -fail-on condition %q (supported: misclassified)", *failOn)
	}
	apps, scenarios, err := appsAndScenarios(*appName, *scens, experiments.PurityApps())
	if err != nil {
		return err
	}

	var rows []*experiments.PurityRow
	for _, name := range apps {
		row, err := experiments.Purity(ctx, name, scenarios, *theta)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	} else {
		for _, row := range rows {
			fmt.Printf("%s: %d classes (%d with state descriptors, %d locally pure), theta %.2f\n",
				row.App, row.Classes, row.WithDescriptor, row.LocallyPure, row.Theta)
			if g := row.Grading; g != nil {
				fmt.Printf("  graded %d components: %d stateless, %d read-mostly, %d stateful\n",
					len(g.Components), g.Stateless, g.ReadMostly, g.Stateful)
				for _, cg := range g.Components {
					if cg.Grade != purity.GradeStateful {
						fmt.Printf("    %-12s %-24s %s (%s)\n", cg.Grade, cg.Classification, cg.Class, cg.Provenance)
					}
				}
				fmt.Printf("  cut %.6fs plain vs %.6fs replicated (%d components cloned)\n",
					row.CutWeight, row.ReplicatedWeight, len(row.Replicated))
			}
			fmt.Printf("  verifier: %d misclassified, %d warnings\n\n", row.Misclassified, row.Warnings)
		}
	}

	if *failOn == "misclassified" {
		var failed []string
		for _, row := range rows {
			if row.Misclassified > 0 {
				failed = append(failed, fmt.Sprintf("%s (%d)", row.App, row.Misclassified))
			}
		}
		if len(failed) > 0 {
			return fmt.Errorf("purity misclassifications: %s", strings.Join(failed, ", "))
		}
	}
	return nil
}
