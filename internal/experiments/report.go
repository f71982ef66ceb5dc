package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/purity"
	"repro/internal/reach"
	"repro/internal/scenario"
	"repro/internal/staticanal"
)

// AppReport is everything the static analyses say about one application,
// checked against one combined profile of its training scenarios: the
// constraint set and whether the cut honours it, how much of the static
// reachability graph the scenarios exercised, the purity grading with the
// replication-aware cut, and the alias refinement. Keep drops sections;
// the renderers and the gate skip a dropped one.
type AppReport struct {
	App       string   `json:"app"`
	Scenarios []string `json:"scenarios"`

	Check    *CheckSection    `json:"check,omitempty"`
	Coverage *CoverageSection `json:"coverage,omitempty"`
	Purity   *PuritySection   `json:"purity,omitempty"`
	Alias    *AliasSection    `json:"alias,omitempty"`
}

// CheckSection summarizes the static constraint set and its verification
// against the baseline cut.
type CheckSection struct {
	Pins         int `json:"pins"`
	Pairs        int `json:"pairs"`
	NonRemotable int `json:"nonRemotable"`
	Conditional  int `json:"conditional"`
	// Pinned counts classifications the constraint set pinned during
	// analysis; Welded counts statically welded profile edges.
	Pinned int `json:"pinned"`
	Welded int `json:"welded"`
	// Violations counts error-severity findings (constraint-breaking
	// cuts); Warnings counts static/dynamic divergences.
	Violations int `json:"violations"`
	Warnings   int `json:"warnings"`
	// Report is the full static analysis with the verifier's findings.
	Report *staticanal.Report `json:"report"`
}

// CoverageSection summarizes the diff of the static reachability graph
// against the profile.
type CoverageSection struct {
	Sites        int     `json:"sites"`
	SitesCovered int     `json:"sitesCovered"`
	Edges        int     `json:"edges"`
	EdgesCovered int     `json:"edgesCovered"`
	Percent      float64 `json:"percent"`
	// Misses counts observations the static analysis failed to predict
	// (stale activation metadata — the reverse diff direction).
	Misses int `json:"misses"`
	// Installed counts the uncovered edges a coverage-constrained analysis
	// would install as conservative co-location pairs.
	Installed int `json:"installed"`
	Reachable int `json:"reachable"`
	// Report is the full per-site and per-edge diff.
	Report *reach.Coverage `json:"report"`
}

// PuritySection summarizes the static purity scan, the profile-folded
// grading, and the plain-vs-replicated cut comparison.
type PuritySection struct {
	Theta          float64 `json:"theta"`
	Classes        int     `json:"classes"`
	WithDescriptor int     `json:"withDescriptor"`
	LocallyPure    int     `json:"locallyPure"`
	// Grading is the per-component verdict.
	Grading *purity.Grading `json:"grading"`
	// Misclassified counts profile-observed mutations through methods the
	// static analysis claimed read-only, plus a replicated cut costlier
	// than the plain one. Always expected to be zero.
	Misclassified int `json:"misclassified"`
	// Warnings counts mutations on components the static model cannot
	// resolve.
	Warnings int `json:"warnings"`
	// CutWeight is the plain minimum cut, ReplicatedWeight the
	// replication-aware one (Replicated components cloned, their ICC
	// edges removed).
	CutWeight        float64  `json:"cutWeight"`
	ReplicatedWeight float64  `json:"replicatedWeight"`
	Replicated       []string `json:"replicated,omitempty"`
	// Report is the full static scan.
	Report *purity.Report `json:"report"`
}

// AliasSection summarizes the points-to scan over opaque payloads, the
// constraint refinement it enables, and its zero-miss verification.
type AliasSection struct {
	Classes        int `json:"classes"`
	Locations      int `json:"locations"`
	SharedPairs    int `json:"sharedPairs"`
	MutablePairs   int `json:"mutablePairs"`
	UnknownClasses int `json:"unknownClasses"`
	// Pair-wise constraints before and after refinement, plus the
	// aliasing pairs the refiner added.
	BaselinePairs int `json:"baselinePairs"`
	RefinedPairs  int `json:"refinedPairs"`
	AliasPairs    int `json:"aliasPairs"`
	// BaselineWelds and RefinedWelds count the distinct class pairs of
	// profiled edges welded to one machine under the unrefined and the
	// alias-refined constraint set (see WeldedClassPairs). Refinement
	// clears conservative welds over immutable payloads but may also add
	// an aliasing pair the profiler never caught in the act, so the
	// refined count is usually — not provably — the smaller one.
	BaselineWelds int `json:"baselineWelds"`
	RefinedWelds  int `json:"refinedWelds"`
	// Misses counts profiled non-remotable calls the points-to analysis
	// failed to predict. Always expected to be zero.
	Misses int `json:"misses"`
	// Warnings counts calls on components the static model cannot resolve.
	Warnings int `json:"warnings"`
	// Report is the full shared-state report, provenance chains included.
	Report *alias.Result `json:"report"`
}

// ReportApps lists the applications a report sweep covers: the Table 1
// suite plus the quick-start example.
func ReportApps() []string { return append(scenario.Apps(), "quickstart") }

// TrainingScenarios returns the scenario suite an application's report
// profiles by default: the Table 1 (or generated) training scenarios, and
// the single default scenario for the quick-start example.
func TrainingScenarios(appName string) []string {
	if appName == "quickstart" {
		return []string{"default"}
	}
	return scenario.TrainingForApp(appName)
}

// Report runs the pipeline once for the application — one session, the
// scenarios profiled once (nil selects TrainingScenarios) — and reads all
// four sections off that run: its analysis, with replication on, feeds
// check and purity; the profile diffed against the static reachability
// graph is coverage; the analysis repeated under the alias-refined
// constraints is alias. theta 0 selects purity.DefaultTheta; the spec
// rejects a theta outside [0, 1).
func Report(ctx context.Context, appName string, scenarios []string, theta float64) (*AppReport, error) {
	if len(scenarios) == 0 {
		scenarios = TrainingScenarios(appName)
	}
	run, err := pipeline.Run(ctx, pipeline.Spec{App: appName, Scenarios: scenarios, Replicate: true, Theta: theta})
	if err != nil {
		return nil, err
	}
	adps, p, base := run.ADPS, run.Profile, run.Analysis
	baseline := adps.AnalysisOptions.Constraints
	if err := adps.EnableAlias(); err != nil {
		return nil, err
	}
	refined := adps.AnalysisOptions.Constraints
	adps.AnalysisOptions.Replicate = false // the alias section reads no replicated cut
	aliased, err := adps.Analyze(ctx, p)
	if err != nil {
		return nil, err
	}

	st := adps.Static
	st.AddFindings(base.Findings...)
	check := &CheckSection{
		Pins:       len(st.Constraints.Pins),
		Pairs:      len(st.Constraints.Pairs),
		Pinned:     base.Constrained,
		Welded:     base.StaticCoLocations,
		Violations: staticanal.ErrorCount(base.Findings),
		Report:     st,
	}
	_, check.Conditional, check.NonRemotable = st.CountByRemotability()
	check.Warnings = len(base.Findings) - check.Violations

	cov := adps.Reach.Coverage(p)
	coverage := &CoverageSection{
		Percent:   cov.Percent(),
		Misses:    len(cov.Misses),
		Reachable: len(adps.Reach.Reachable),
		Report:    cov,
	}
	coverage.SitesCovered, coverage.Sites = cov.SitesCovered()
	coverage.EdgesCovered, coverage.Edges = cov.EdgesCovered()

	pr := adps.Purity
	pur := &PuritySection{
		Theta:      base.Purity.Theta,
		Classes:    len(pr.Classes),
		Grading:    base.Purity,
		CutWeight:  base.Cut.Cost.Seconds(),
		Replicated: base.Replicated,
		Report:     pr,
		// Run cut with Replicate on, so the replicated cut is there.
		ReplicatedWeight: base.ReplicatedCut.Cost.Seconds(),
	}
	for _, ci := range pr.Classes {
		if ci.HasDescriptor {
			pur.WithDescriptor++
		}
		if ci.LocallyPure {
			pur.LocallyPure++
		}
	}
	pur.Misclassified, pur.Warnings = tally(base.Findings, purity.KindPurityMiss, analysis.KindReplicationRegression)

	ar := adps.Alias
	ar.FillChains() // the section's report carries every pair's chains
	al := &AliasSection{
		Classes:        len(ar.Classes),
		Locations:      len(ar.Locations),
		SharedPairs:    len(ar.Pairs),
		MutablePairs:   len(ar.MutablePairs()),
		UnknownClasses: len(ar.UnknownClasses),
		BaselinePairs:  len(baseline.Pairs),
		RefinedPairs:   len(refined.Pairs),
		AliasPairs:     len(refined.AliasPairs),
		BaselineWelds:  len(WeldedClassPairs(baseline, p)),
		RefinedWelds:   len(WeldedClassPairs(refined, p)),
		Report:         ar,
	}
	al.Misses, al.Warnings = tally(aliased.Findings, alias.KindAliasMiss)

	// InstallConstraints mutates the set it counts into, so it counts into
	// the baseline set only now that no analysis will read that set again.
	coverage.Installed = cov.InstallConstraints(baseline)

	return &AppReport{
		App: appName, Scenarios: scenarios,
		Check: check, Coverage: coverage, Purity: pur, Alias: al,
	}, nil
}

// Keep drops every section not named in only: "check", "coverage",
// "purity", "alias".
func (r *AppReport) Keep(only []string) error {
	kept := AppReport{App: r.App, Scenarios: r.Scenarios}
	for _, name := range only {
		switch name {
		case "check":
			kept.Check = r.Check
		case "coverage":
			kept.Coverage = r.Coverage
		case "purity":
			kept.Purity = r.Purity
		case "alias":
			kept.Alias = r.Alias
		default:
			return fmt.Errorf("unknown report section %q (have check, coverage, purity, alias)", name)
		}
	}
	*r = kept
	return nil
}

// Failures is the report's one gate. failOn names the conditions that
// fail it — "violation" (a cut broke a constraint), "misclassified" (the
// purity verifier was contradicted), "miss" (the points-to analysis did
// not predict a profiled non-remotable call) — and failUnder the coverage
// percentage it must reach. Every failure names the application. An
// unknown condition is an error.
func (r *AppReport) Failures(failOn []string, failUnder float64) ([]string, error) {
	var failed []string
	for _, cond := range failOn {
		switch cond {
		case "violation":
			if c := r.Check; c != nil && c.Violations > 0 {
				failed = append(failed, fmt.Sprintf("%s: %d constraint violation(s)", r.App, c.Violations))
			}
		case "misclassified":
			if p := r.Purity; p != nil && p.Misclassified > 0 {
				failed = append(failed, fmt.Sprintf("%s: %d purity misclassification(s)", r.App, p.Misclassified))
			}
		case "miss":
			if a := r.Alias; a != nil && a.Misses > 0 {
				failed = append(failed, fmt.Sprintf("%s: %d alias miss(es)", r.App, a.Misses))
			}
		default:
			return nil, fmt.Errorf("unknown -fail-on condition %q (have violation, misclassified, miss)", cond)
		}
	}
	if c := r.Coverage; c != nil && c.Percent < failUnder {
		failed = append(failed, fmt.Sprintf("%s: coverage %.1f%% below %.1f%%", r.App, c.Percent, failUnder))
	}
	return failed, nil
}

// WriteText renders the kept sections for humans. The alias section has
// one line per mutable location with the number of class pairs sharing
// it; the pairs themselves and their provenance chains are in the JSON.
func (r *AppReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s, profiled %v ==\n", r.App, r.Scenarios); err != nil {
		return err
	}
	if c := r.Check; c != nil {
		if err := c.Report.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "  verified: %d pinned, %d statically welded, %d warnings, %d violations\n",
			c.Pinned, c.Welded, c.Warnings, c.Violations)
	}
	if c := r.Coverage; c != nil {
		if err := c.Report.WriteText(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "  %d reachable classes; %d uncovered edges installable as co-location constraints\n",
			c.Reachable, c.Installed)
	}
	if p := r.Purity; p != nil {
		g := p.Grading
		fmt.Fprintf(w, "%s: purity of %d classes (%d with state descriptors, %d locally pure), theta %.2f\n",
			r.App, p.Classes, p.WithDescriptor, p.LocallyPure, p.Theta)
		fmt.Fprintf(w, "  graded %d components: %d stateless, %d read-mostly, %d stateful\n",
			len(g.Components), g.Stateless, g.ReadMostly, g.Stateful)
		for _, cg := range g.Components {
			if cg.Grade != purity.GradeStateful {
				fmt.Fprintf(w, "    %-12s %-24s %s (%s)\n", cg.Grade, cg.Classification, cg.Class, cg.Provenance)
			}
		}
		fmt.Fprintf(w, "  cut %.6fs plain vs %.6fs replicated (%d components cloned)\n",
			p.CutWeight, p.ReplicatedWeight, len(p.Replicated))
		fmt.Fprintf(w, "  verifier: %d misclassified, %d warnings\n", p.Misclassified, p.Warnings)
	}
	if a := r.Alias; a != nil {
		fmt.Fprintf(w, "%s: alias analysis over %d locations, %d classes holding pointers, %d shared pairs (%d mutable)\n",
			r.App, a.Locations, a.Classes, a.SharedPairs, a.MutablePairs)
		decides := make(map[string]int)
		for i := range a.Report.Pairs {
			if sp := &a.Report.Pairs[i]; sp.Mutable {
				decides[sp.Location]++
			}
		}
		for i := range a.Report.Locations {
			if l := &a.Report.Locations[i]; decides[l.Key] > 0 {
				fmt.Fprintf(w, "    %-24s mutable, shared by %d class pairs (%s)\n", l.Key, decides[l.Key], l.Reason)
			}
		}
		fmt.Fprintf(w, "  constraints: %d pair-wise baseline -> %d refined, %d aliasing pairs added\n",
			a.BaselinePairs, a.RefinedPairs, a.AliasPairs)
		fmt.Fprintf(w, "  welded class pairs: %d baseline -> %d refined\n", a.BaselineWelds, a.RefinedWelds)
		fmt.Fprintf(w, "  verifier: %d alias misses, %d warnings\n", a.Misses, a.Warnings)
	}
	_, err := fmt.Fprintln(w)
	return err
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
	for _, e := range p.Edges {
		if p.Name(e.Src) == profile.MainProgram || p.Name(e.Dst) == profile.MainProgram {
			continue
		}
		srcCI, dstCI := p.ClassificationOf(e.Src), p.ClassificationOf(e.Dst)
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

// tally counts the verifier findings of the given hard-error kinds, and
// the soft warnings every verifier emits for components the static model
// cannot resolve.
func tally(findings []staticanal.Finding, kinds ...string) (hard, warnings int) {
	for _, f := range findings {
		for _, k := range kinds {
			if f.Kind == k {
				hard++
			}
		}
		if f.Kind == staticanal.KindUnknownClass && f.Severity == staticanal.SeverityWarning {
			warnings++
		}
	}
	return hard, warnings
}
