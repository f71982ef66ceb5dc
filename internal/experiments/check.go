package experiments

import (
	"context"

	"repro/internal/scenario"
	"repro/internal/staticanal"
)

// CheckRow is the result of running the static constraint analyzer over
// one application and verifying it against the profiled scenario suite.
type CheckRow struct {
	App    string
	Report *staticanal.Report

	// Constraint-set summary.
	Pins         int
	Pairs        int
	NonRemotable int
	Conditional  int

	// Scenarios verified against the static prediction.
	Scenarios []string
	// Pinned counts classifications the constraint set pinned during
	// analysis; Welded counts statically welded profile edges.
	Pinned int
	Welded int
	// Violations counts error-severity findings (constraint-breaking
	// cuts); Warnings counts static/dynamic divergences.
	Violations int
	Warnings   int
}

// Check runs the static analyzer over one application, then (when
// scenarios is non-empty) profiles the scenarios, cuts the graph under the
// derived constraints, and cross-checks prediction against observation.
// The verifier's findings accumulate into the returned row's report.
func Check(ctx context.Context, appName string, scenarios []string) (*CheckRow, error) {
	adps, err := openApp(appName)
	if err != nil {
		return nil, err
	}
	rep := adps.Static
	row := &CheckRow{
		App:       appName,
		Report:    rep,
		Pins:      len(rep.Constraints.Pins),
		Pairs:     len(rep.Constraints.Pairs),
		Scenarios: scenarios,
	}
	_, row.Conditional, row.NonRemotable = rep.CountByRemotability()

	if len(scenarios) == 0 {
		return row, nil
	}
	_, res, err := profileAndAnalyze(ctx, adps, scenarios)
	if err != nil {
		return nil, err
	}
	row.Pinned = res.Constrained
	row.Welded = res.StaticCoLocations
	rep.AddFindings(res.Findings...)
	row.Violations = staticanal.ErrorCount(res.Findings)
	row.Warnings = len(res.Findings) - row.Violations
	return row, nil
}

// CheckAll runs Check over every application with its full training
// scenario suite, one application per worker on a bounded pool.
func CheckAll(ctx context.Context) ([]*CheckRow, error) {
	return parallelMap(ctx, scenario.Apps(), func(ctx context.Context, appName string) (*CheckRow, error) {
		return Check(ctx, appName, scenario.TrainingForApp(appName))
	})
}
