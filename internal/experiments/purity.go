package experiments

import (
	"context"

	"repro/internal/purity"
	"repro/internal/scenario"
)

// PurityRow is the purity pipeline's summary for one application: the
// static scan, the profile-folded grading, the verifier's verdicts, and
// the plain-vs-replicated cut comparison.
type PurityRow struct {
	App   string  `json:"app"`
	Theta float64 `json:"theta"`

	// Static scan summary.
	Classes        int `json:"classes"`
	WithDescriptor int `json:"withDescriptor"`
	LocallyPure    int `json:"locallyPure"`

	// Scenarios profiled to fold in dynamic evidence.
	Scenarios []string `json:"scenarios,omitempty"`
	// Grading is the per-component verdict (nil when no scenarios ran).
	Grading *purity.Grading `json:"grading,omitempty"`
	// Misclassified counts purity-miss findings: profile-observed
	// mutations through methods the static analysis claimed read-only.
	// Always expected to be zero; the CI gate fails on any.
	Misclassified int `json:"misclassified"`
	// Warnings counts soft verifier findings (mutations on components the
	// static model cannot resolve).
	Warnings int `json:"warnings"`

	// Cut comparison: the plain minimum cut versus the replication-aware
	// one (eligible components cloned, their ICC edges removed).
	CutWeight        float64  `json:"cutWeight"`
	ReplicatedWeight float64  `json:"replicatedWeight"`
	Replicated       []string `json:"replicated,omitempty"`

	// Report is the full static analysis, for -json consumers.
	Report *purity.Report `json:"report,omitempty"`
}

// Purity runs the purity pipeline for one application: static scan over
// the binary image, then (when scenarios is non-empty) profile the
// scenarios, grade every component, verify the static claims against the
// observed mutations, and cut both the plain and the replication-aware
// networks. theta <= 0 selects purity.DefaultTheta.
func Purity(ctx context.Context, appName string, scenarios []string, theta float64) (*PurityRow, error) {
	adps, err := openApp(appName)
	if err != nil {
		return nil, err
	}
	pr := adps.Purity
	row := &PurityRow{
		App:     appName,
		Theta:   theta,
		Classes: len(pr.Classes),
		Report:  pr,
	}
	if row.Theta <= 0 {
		row.Theta = purity.DefaultTheta
	}
	for _, ci := range pr.Classes {
		if ci.HasDescriptor {
			row.WithDescriptor++
		}
		if ci.LocallyPure {
			row.LocallyPure++
		}
	}

	if len(scenarios) == 0 {
		scenarios = TrainingScenarios(appName)
	}
	if len(scenarios) == 0 {
		return row, nil
	}
	row.Scenarios = scenarios

	adps.AnalysisOptions.PurityTheta = theta
	adps.AnalysisOptions.Replicate = true
	_, res, err := profileAndAnalyze(ctx, adps, scenarios)
	if err != nil {
		return nil, err
	}
	row.Grading = res.Purity
	row.CutWeight = res.Cut.Weight
	if res.ReplicatedCut != nil {
		row.ReplicatedWeight = res.ReplicatedCut.Weight
	}
	row.Replicated = res.Replicated
	row.Misclassified, row.Warnings = tally(res.Findings, purity.KindPurityMiss, "replication-regression")
	return row, nil
}

// PurityApps lists the applications the purity gate sweeps: the Table 1
// suite plus the quick-start example.
func PurityApps() []string { return append(scenario.Apps(), "quickstart") }
