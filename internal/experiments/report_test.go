package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/par"
)

// TestReportGateApps is the acceptance gate for the four static analyses
// on the report population, read off one profile per application: golden
// summary numbers, every constraint honoured, every observation predicted.
func TestReportGateApps(t *testing.T) {
	t.Parallel()
	reports, err := par.Map(context.Background(), ReportApps(), func(ctx context.Context, app string) (*AppReport, error) {
		return Report(ctx, app, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	type summary struct {
		app                                 string
		scenarios                           int
		pins, pairs, nonRemotable           int
		pinned, welded                      int
		percent                             string
		installed                           int
		classes                             int
		aliasPairs, baseWelds, refinedWelds int
	}
	golden := []summary{
		{"octarine", 11, 79, 0, 3, 233, 250, "73.6", 70, 150, 1521, 82, 103},
		{"photodraw", 6, 61, 6, 2, 61, 68, "100.0", 0, 112, 304, 62, 64},
		{"benefits", 3, 10, 0, 0, 21, 0, "82.4", 8, 25, 9, 8, 9},
		{"quickstart", 1, 2, 0, 1, 2, 0, "75.0", 1, 3, 1, 0, 0},
	}
	if len(reports) != len(golden) {
		t.Fatalf("reported %d apps, want %d", len(reports), len(golden))
	}
	for i, r := range reports {
		c, cov, pur, al := r.Check, r.Coverage, r.Purity, r.Alias
		got := summary{r.App, len(r.Scenarios), c.Pins, c.Pairs, c.NonRemotable, c.Pinned, c.Welded,
			fmt.Sprintf("%.1f", cov.Percent), cov.Installed, pur.Classes, al.AliasPairs, al.BaselineWelds, al.RefinedWelds}
		if got != golden[i] {
			t.Errorf("summary = %+v\n      want %+v", got, golden[i])
		}

		// Every cut honours every constraint, the static metadata explains
		// the whole profile, and neither verifier is contradicted. The
		// quick-start app is verified like the suite: against its one
		// scenario, with classifications pinned by the dynamic half.
		if cs := c.Report.Constraints; len(cs.Pins)+len(cs.Pairs)+len(cs.CoveragePairs)+len(cs.AliasPairs) == 0 {
			t.Errorf("%s: empty constraint set", r.App)
		}
		if c.Violations != 0 || c.Warnings != 0 {
			t.Errorf("%s: %d violations, %d warnings: %v", r.App, c.Violations, c.Warnings, c.Report.Findings)
		}
		if cov.Misses != 0 {
			t.Errorf("%s: %d static misses (stale activation metadata): %v", r.App, cov.Misses, cov.Report.Misses)
		}
		if cov.Sites == 0 || cov.Edges == 0 {
			t.Errorf("%s: trivial static graph (%d sites, %d edges)", r.App, cov.Sites, cov.Edges)
		}
		if r.App != "quickstart" && cov.SitesCovered != cov.Sites {
			t.Errorf("%s: training suite leaves activation sites unexercised (%d/%d)", r.App, cov.SitesCovered, cov.Sites)
		}
		if pur.Misclassified != 0 || len(pur.Grading.Components) == 0 || pur.ReplicatedWeight > pur.CutWeight {
			t.Errorf("%s: purity %d misclassified, %d graded, cut %g vs replicated %g",
				r.App, pur.Misclassified, len(pur.Grading.Components), pur.CutWeight, pur.ReplicatedWeight)
		}
		if al.Misses != 0 {
			t.Errorf("%s: %d alias misses", r.App, al.Misses)
		}
		if failed, err := r.Failures([]string{"violation", "misclassified", "miss"}, 70); err != nil || len(failed) != 0 {
			t.Errorf("%s: clean report fails the gate: %v %v", r.App, failed, err)
		}

		// The text view stays readable — the provenance chain of every
		// shared pair is JSON-only — and dropping a section drops it from
		// the text and from the gate.
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(sb.String(), "\n"); n > 400 || !strings.Contains(sb.String(), "alias analysis") {
			t.Errorf("%s: text view is %d lines", r.App, n)
		}
		if al.SharedPairs > 0 && len(al.Report.Pairs[0].ChainA) == 0 {
			t.Errorf("%s: shared pairs lost their provenance chains", r.App)
		}
		if err := r.Keep([]string{"coverage"}); err != nil || r.Check != nil || r.Purity != nil || r.Alias != nil || r.Coverage == nil {
			t.Errorf("%s: Keep(coverage) = %v, left %+v", r.App, err, r)
		}
		sb.Reset()
		if err := r.WriteText(&sb); err != nil || strings.Contains(sb.String(), "alias analysis") {
			t.Errorf("%s: dropped section still rendered (%v):\n%s", r.App, err, sb.String())
		}
	}
	if err := reports[0].Keep([]string{"coverage", "everything"}); err == nil {
		t.Error("unknown section kept")
	}
}

// TestReportFailures doctors a clean report one condition at a time: each
// must fail the gate only when asked for, and name the application.
func TestReportFailures(t *testing.T) {
	t.Parallel()
	doctored := func() *AppReport {
		return &AppReport{
			App:      "doctored",
			Check:    &CheckSection{},
			Coverage: &CoverageSection{Percent: 75},
			Purity:   &PuritySection{},
			Alias:    &AliasSection{},
		}
	}
	all := []string{"violation", "misclassified", "miss"}
	cases := []struct {
		name      string
		doctor    func(*AppReport)
		failOn    []string
		failUnder float64
		want      string // substring of the one failure; "" for none
	}{
		{"clean", func(*AppReport) {}, all, 70, ""},
		{"violation", func(r *AppReport) { r.Check.Violations = 1 }, all, 0, "1 constraint violation"},
		{"violation not asked for", func(r *AppReport) { r.Check.Violations = 1 }, []string{"miss"}, 0, ""},
		{"misclassified", func(r *AppReport) { r.Purity.Misclassified = 1 }, all, 0, "1 purity misclassification"},
		{"miss", func(r *AppReport) { r.Alias.Misses = 1 }, all, 0, "1 alias miss"},
		{"coverage under threshold", func(*AppReport) {}, nil, 80, "coverage 75.0% below 80.0%"},
		{"dropped section cannot fail", func(r *AppReport) { r.Alias = nil }, all, 0, ""},
	}
	for _, tc := range cases {
		r := doctored()
		tc.doctor(r)
		failed, err := r.Failures(tc.failOn, tc.failUnder)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		switch {
		case tc.want == "" && len(failed) != 0:
			t.Errorf("%s: unexpected failures %v", tc.name, failed)
		case tc.want != "" && (len(failed) != 1 || !strings.Contains(failed[0], tc.want) || !strings.HasPrefix(failed[0], "doctored:")):
			t.Errorf("%s: failures = %v, want one naming the app with %q", tc.name, failed, tc.want)
		}
	}
	if _, err := doctored().Failures([]string{"miss", "typo"}, 0); err == nil {
		t.Error("unknown -fail-on condition accepted")
	}
}
