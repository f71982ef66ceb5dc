package experiments

import (
	"context"

	"repro/internal/reach"
	"repro/internal/scenario"
)

// CoverageRow is the result of diffing one application's static
// reachability graph against its profiled training-scenario suite.
type CoverageRow struct {
	App      string
	Coverage *reach.Coverage

	// Scenario suite the profile combined.
	Scenarios []string

	// Static graph summary.
	Sites     int
	Edges     int
	Reachable int

	// Coverage summary.
	SitesCovered int
	EdgesCovered int
	Percent      float64
	// Misses counts observations the static analysis failed to predict
	// (stale activation metadata — the reverse diff direction).
	Misses int
	// Installed counts the uncovered edges installed as conservative
	// co-location pairs into the app's constraint set.
	Installed int
}

// TrainingScenarios returns the profiling-scenario suite used to measure
// an application's coverage: Table 1 training scenarios for suite apps,
// and the single default scenario for the quickstart demonstration app.
func TrainingScenarios(appName string) []string {
	if appName == "quickstart" {
		return []string{"default"}
	}
	return scenario.TrainingForApp(appName)
}

// Coverage builds the application, recovers the static reachability graph
// from its binary, profiles the given scenarios, and diffs the two.
// Uncovered class-to-class edges are installed into the pipeline's
// constraint set so the row reflects what a coverage-constrained analysis
// would honor.
func Coverage(appName string, scenarios []string) (*CoverageRow, error) {
	adps, err := openApp(appName)
	if err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		scenarios = TrainingScenarios(appName)
	}
	cov, _, err := adps.CoverageReport(scenarios, false)
	if err != nil {
		return nil, err
	}
	row := &CoverageRow{
		App:       appName,
		Coverage:  cov,
		Scenarios: scenarios,
		Reachable: len(adps.Reach.Reachable),
		Percent:   cov.Percent(),
		Misses:    len(cov.Misses),
		Installed: cov.InstallConstraints(adps.AnalysisOptions.Constraints),
	}
	row.SitesCovered, row.Sites = cov.SitesCovered()
	row.EdgesCovered, row.Edges = cov.EdgesCovered()
	return row, nil
}

// CoverageAll measures scenario coverage for every suite application with
// its full training suite, one application per worker on a bounded pool.
func CoverageAll(ctx context.Context) ([]*CoverageRow, error) {
	return parallelMap(ctx, scenario.Apps(), func(ctx context.Context, appName string) (*CoverageRow, error) {
		return Coverage(appName, nil)
	})
}
