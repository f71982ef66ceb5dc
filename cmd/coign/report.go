package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiments"
	"repro/internal/par"
)

// cmdReport prints what the static analyses say about one or all
// applications, each checked against one combined profile of its training
// scenarios: constraint check, scenario coverage, purity grading with the
// replication-aware cut, and alias refinement. One gate covers all four.
func cmdReport(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlags("report")
	appName := fs.String("app", "all", "application to analyze, or 'all' (the Table 1 suite and quickstart)")
	scens := fs.String("scenarios", "", "comma-separated scenario override (default: the app's training suite)")
	theta := fs.Float64("theta", 0, "read-mostly write-fraction threshold (0 = default)")
	only := fs.String("only", "check,coverage,purity,alias", "comma-separated sections to print and gate on")
	jsonOut := fs.Bool("json", false, "emit the reports as JSON on stdout")
	failOn := fs.String("fail-on", "", "comma-separated conditions that exit nonzero: violation, misclassified, miss")
	failUnder := fs.Float64("fail-under", 0, "exit nonzero when an app's coverage is below this percentage")
	if err := fs.parse(args); err != nil {
		return err
	}
	apps := experiments.ReportApps()
	if *appName != "all" {
		apps = []string{*appName}
	}
	var scenarios, conds []string
	if *scens != "" {
		if len(apps) != 1 {
			return fmt.Errorf("-scenarios requires a single -app")
		}
		scenarios = strings.Split(*scens, ",")
	}
	if *failOn != "" {
		conds = strings.Split(*failOn, ",")
	}
	// Reject a misspelt section or condition before profiling anything.
	keep := strings.Split(*only, ",")
	probe := new(experiments.AppReport)
	if err := probe.Keep(keep); err != nil {
		return err
	}
	if _, err := probe.Failures(conds, 0); err != nil {
		return err
	}

	reports, err := par.Map(ctx, apps, func(ctx context.Context, app string) (*experiments.AppReport, error) {
		r, err := experiments.Report(ctx, app, scenarios, *theta)
		if err != nil {
			return nil, err
		}
		return r, r.Keep(keep)
	})
	if err != nil {
		return err
	}

	var failed []string
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	}
	for _, r := range reports {
		if !*jsonOut {
			if err := r.WriteText(w); err != nil {
				return err
			}
		}
		f, _ := r.Failures(conds, *failUnder) // conds were validated above
		failed = append(failed, f...)
	}
	if len(failed) > 0 {
		return fmt.Errorf("report gate failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}
