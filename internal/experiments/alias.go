package experiments

import (
	"context"
	"sort"

	"repro/internal/alias"
	"repro/internal/profile"
	"repro/internal/staticanal"
)

// AliasRow is the alias pipeline's summary for one application: the
// points-to scan over opaque payloads, the constraint refinement it
// enables, and the zero-miss verification against the profiled
// scenarios.
type AliasRow struct {
	App string `json:"app"`

	// Points-to scan summary.
	Classes        int `json:"classes"`
	Locations      int `json:"locations"`
	SharedPairs    int `json:"sharedPairs"`
	MutablePairs   int `json:"mutablePairs"`
	UnknownClasses int `json:"unknownClasses"`

	// Constraint refinement summary: pair-wise constraints before and
	// after refinement, plus the aliasing pairs the refiner added.
	BaselinePairs int `json:"baselinePairs"`
	RefinedPairs  int `json:"refinedPairs"`
	AliasPairs    int `json:"aliasPairs"`

	// Scenarios profiled for the dynamic checks (empty when the app has
	// no training suite; the dynamic fields below stay zero then).
	Scenarios []string `json:"scenarios,omitempty"`
	// BaselineWelds and RefinedWelds count the distinct class pairs of
	// profiled edges welded to one machine under the unrefined and the
	// alias-refined constraint set (see WeldedClassPairs). Refinement
	// clears conservative welds over immutable payloads but may also add
	// an aliasing pair the profiler never caught in the act, so the
	// refined count is usually — not provably — the smaller one.
	BaselineWelds int `json:"baselineWelds"`
	RefinedWelds  int `json:"refinedWelds"`
	// Misses counts alias-miss findings: profiled non-remotable calls the
	// points-to analysis failed to predict. Always expected to be zero;
	// the CI gate fails on any.
	Misses int `json:"misses"`
	// Warnings counts soft verifier findings (calls on components the
	// static model cannot resolve).
	Warnings int `json:"warnings"`

	// Report is the full shared-state report, for -json consumers.
	Report *alias.Result `json:"report,omitempty"`
}

// Alias runs the alias pipeline for one application: points-to scan over
// the binary image, constraint refinement, then (when the app has
// training scenarios) profile them, verify zero-miss, and compare how
// many profiled class pairs stay welded before and after refinement.
func Alias(ctx context.Context, appName string, scenarios []string) (*AliasRow, error) {
	adps, err := openApp(appName)
	if err != nil {
		return nil, err
	}
	baseline := adps.AnalysisOptions.Constraints
	if err := adps.EnableAlias(); err != nil {
		return nil, err
	}
	ar, refined := adps.Alias, adps.AnalysisOptions.Constraints
	row := &AliasRow{
		App:            appName,
		Classes:        len(ar.Classes),
		Locations:      len(ar.Locations),
		SharedPairs:    len(ar.Pairs),
		MutablePairs:   len(ar.MutablePairs()),
		UnknownClasses: len(ar.UnknownClasses),
		BaselinePairs:  len(baseline.Pairs),
		RefinedPairs:   len(refined.Pairs),
		AliasPairs:     len(refined.AliasPairs),
		Report:         ar,
	}

	if len(scenarios) == 0 {
		scenarios = TrainingScenarios(appName)
	}
	if len(scenarios) == 0 {
		return row, nil
	}
	row.Scenarios = scenarios

	p, res, err := profileAndAnalyze(ctx, adps, scenarios)
	if err != nil {
		return nil, err
	}
	row.BaselineWelds = len(WeldedClassPairs(baseline, p))
	row.RefinedWelds = len(WeldedClassPairs(refined, p))
	row.Misses, row.Warnings = tally(res.Findings, alias.KindAliasMiss)
	return row, nil
}

// WeldedClassPairs lists the distinct unordered class pairs of profiled
// communication edges that the constraint set forces onto one machine —
// either by an explicit co-location constraint or by the conservative
// dynamic weld of an observed non-remotable call. This is the pin-clique
// footprint the alias refinement is meant to shrink: with an unrefined set
// every non-remotable edge welds, with a refined set only truly-aliasing
// pairs do. Pairs are sorted; edges touching the main program or
// unclassified components are skipped (they never weld class pairs).
func WeldedClassPairs(cs *staticanal.ConstraintSet, p *profile.Profile) [][2]string {
	seen := make(map[[2]string]bool)
	for k, e := range p.Edges {
		if k.Src == profile.MainProgram || k.Dst == profile.MainProgram {
			continue
		}
		srcCI, dstCI := p.Classifications[k.Src], p.Classifications[k.Dst]
		if srcCI == nil || dstCI == nil || srcCI.Class == dstCI.Class {
			continue
		}
		src, dst := srcCI.Class, dstCI.Class
		_, welded := cs.MustCoLocate(src, dst)
		welded = welded || (e.NonRemotable && cs.ObservedNonRemotableWeld(src, dst))
		if !welded {
			continue
		}
		pair := [2]string{src, dst}
		if pair[0] > pair[1] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		seen[pair] = true
	}
	pairs := make([][2]string, 0, len(seen))
	for pair := range seen {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// AliasApps lists the applications the alias gate sweeps — the same
// population as the purity gate.
func AliasApps() []string { return PurityApps() }

// AliasAll runs Alias over every gate application with its training
// suite, one application per worker on a bounded pool.
func AliasAll(ctx context.Context) ([]*AliasRow, error) {
	return parallelMap(ctx, AliasApps(), func(ctx context.Context, appName string) (*AliasRow, error) {
		return Alias(ctx, appName, nil)
	})
}
