package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/netsim"
	"repro/internal/pipeline"
)

func TestTable2Shape(t *testing.T) {
	t.Parallel()
	rows, err := Table2("octarine")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 classifiers", len(rows))
	}
	byName := map[string]*analysis.ClassifierEval{}
	for _, r := range rows {
		byName[r.Classifier] = r
	}
	inc, st, ifcb := byName["incremental"], byName["st"], byName["ifcb"]
	if inc.NewClassifications == 0 {
		t.Error("incremental found no new classifications on bigone")
	}
	if ifcb.NewClassifications != 0 || st.NewClassifications != 0 {
		t.Error("stable classifiers produced new classifications")
	}
	if !(st.ProfiledClassifications < ifcb.ProfiledClassifications) {
		t.Errorf("granularity ordering: st=%d ifcb=%d",
			st.ProfiledClassifications, ifcb.ProfiledClassifications)
	}
	if ifcb.AvgCorrelation < st.AvgCorrelation || inc.AvgCorrelation > 0.5 {
		t.Errorf("correlation ordering: ifcb=%.3f st=%.3f inc=%.3f",
			ifcb.AvgCorrelation, st.AvgCorrelation, inc.AvgCorrelation)
	}
	var sb strings.Builder
	PrintTable2(&sb, rows)
	if !strings.Contains(sb.String(), "ifcb") {
		t.Error("PrintTable2 output incomplete")
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	rows, err := Table3("octarine")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table3Depths) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Classification count is non-decreasing in depth, and the complete
	// walk matches depth 16 (saturation).
	for i := 1; i < len(rows); i++ {
		if rows[i].ProfiledClassifications < rows[i-1].ProfiledClassifications {
			t.Errorf("depth %d: classifications decreased", rows[i].Depth)
		}
	}
	last, complete := rows[len(rows)-2], rows[len(rows)-1]
	if last.ProfiledClassifications != complete.ProfiledClassifications {
		t.Errorf("depth-16 (%d) did not saturate to complete (%d)",
			last.ProfiledClassifications, complete.ProfiledClassifications)
	}
	var sb strings.Builder
	PrintTable3(&sb, rows)
	if !strings.Contains(sb.String(), "complete") {
		t.Error("PrintTable3 output incomplete")
	}
}

func TestRunScenarioAndPrinters(t *testing.T) {
	t.Parallel()
	row, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{"b_vueone"}, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	if row.Spec.App != "benefits" || row.Experiment.DefaultComm <= 0 {
		t.Fatalf("row = %+v", row)
	}
	if row.Experiment.Violations != 0 {
		t.Errorf("violations = %d", row.Experiment.Violations)
	}
	var sb strings.Builder
	PrintTable4(&sb, []*pipeline.Result{row})
	PrintTable5(&sb, []*pipeline.Result{row})
	if !strings.Contains(sb.String(), "b_vueone") {
		t.Error("printers dropped the scenario")
	}
	if _, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{"nope"}, Compare: true}); err == nil {
		t.Error("unknown scenario ran")
	}
}

func TestFigureHelpers(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		figure, scenario string
		server           int
	}{{"Figure 7", "o_oldtb0", 1}, {"Figure 5", "o_oldwp7", 2}} {
		res, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{tc.scenario}, Compare: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Experiment.ServerInstances; got != tc.server {
			t.Errorf("%s server components = %d, want %d", tc.figure, got, tc.server)
		}
	}
}

// TestMeasureOverheadOrdering orders the configurations by wall time:
// profiling is slower than the distribution runtime, best of ten runs
// each. Not parallel: a run takes under a millisecond, so sibling tests
// sharing the CPU would time it instead of the configuration.
//
//lint:allow paralleltest wall times are measured on a shared CPU
func TestMeasureOverheadOrdering(t *testing.T) {
	row, err := MeasureOverhead("o_oldwp0", 10)
	if err != nil {
		t.Fatal(err)
	}
	// Profiling costs more than the lightweight distribution runtime.
	if row.Profiling <= row.Distribution {
		t.Errorf("profiling %v not slower than distribution %v", row.Profiling, row.Distribution)
	}
	if row.ProfilingOverhead <= row.DistributionOverhead {
		t.Errorf("overhead ordering: profiling %+.0f%% vs distribution %+.0f%%",
			row.ProfilingOverhead*100, row.DistributionOverhead*100)
	}
	if row.String() == "" {
		t.Error("empty overhead string")
	}
	if _, err := MeasureOverhead("nope", 1); err == nil {
		t.Error("unknown scenario measured")
	}
}

// TestMeasureOverheadCounts orders the three configurations by counted
// work rather than wall time: per trapped call and per instantiation, the
// profiling run allocates more heap objects than the distribution run,
// which allocates at least what the bare run does. Not parallel: the
// allocation count is process-wide.
//
//lint:allow paralleltest allocation counts are process-wide
func TestMeasureOverheadCounts(t *testing.T) {
	row, err := MeasureOverhead("o_oldwp0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.Calls == 0 || row.Instances == 0 {
		t.Fatalf("counted %d calls and %d instances", row.Calls, row.Instances)
	}
	for _, per := range []struct {
		name string
		of   func(uint64) float64
	}{{"call", row.PerCall}, {"instantiation", row.PerInstance}} {
		bare, prof, distr := per.of(row.BareObjects), per.of(row.ProfilingObjects), per.of(row.DistributionObjects)
		if !(prof > distr && distr >= bare) {
			t.Errorf("objects per %s: profiling %.2f, distribution %.2f, bare %.2f; want profiling > distribution >= bare",
				per.name, prof, distr, bare)
		}
	}
	if !strings.Contains(row.String(), "objects per call") {
		t.Errorf("overhead row does not print its counts:\n%s", row)
	}
}

func TestAdaptiveRepartitioning(t *testing.T) {
	t.Parallel()
	rows, err := Adaptive(context.Background(), "o_oldwp7", []string{"ISDN", "10BaseT", "ATM"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// All networks profit from moving the reader for the 208-page doc; the
	// absolute predicted times shrink as the network gets faster.
	if !(rows[0].PredictedComm > rows[1].PredictedComm &&
		rows[1].PredictedComm > rows[2].PredictedComm) {
		t.Errorf("predicted comm not decreasing with network speed: %v %v %v",
			rows[0].PredictedComm, rows[1].PredictedComm, rows[2].PredictedComm)
	}
	for _, r := range rows {
		if r.Savings <= 0 {
			t.Errorf("%s: no savings", r.Network)
		}
	}
	// The ICC topology is network-independent, so every re-analysis after
	// the first must have warm-started from the shared re-cut arena.
	if rows[0].WarmCut {
		t.Error("first network's cut reported warm")
	}
	for _, r := range rows[1:] {
		if !r.WarmCut {
			t.Errorf("%s: re-cut did not warm-start", r.Network)
		}
	}
	if _, err := Adaptive(context.Background(), "o_oldwp7", []string{"smoke-signals"}); err == nil {
		t.Error("unknown network accepted")
	}
	if _, err := Adaptive(context.Background(), "nope", nil); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestFiguresBundleAndPrinter(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs all five figures")
	}
	rows, err := Figures(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("figures = %d", len(rows))
	}
	var sb strings.Builder
	PrintFigures(&sb, rows)
	for _, want := range []string{"Figure 4", "Figure 8"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("printer missing %s", want)
		}
	}
	_ = netsim.TenBaseT
}

func TestDistributionDrillDown(t *testing.T) {
	t.Parallel()
	res, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{"p_oldmsr"}, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis == nil || res.Analysis.ServerInstances == 0 {
		t.Error("no server instances in PhotoDraw distribution")
	}
}

func TestCompareCaching(t *testing.T) {
	t.Parallel()
	// Text-properties queries repeat across paragraphs; with the
	// properties component on the server, per-interface caching answers
	// the repeats locally.
	cmp, err := CompareCaching("o_oldwp7")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CacheHits == 0 {
		t.Fatal("no cache hits on repeated property queries")
	}
	if cmp.Cached >= cmp.Plain {
		t.Errorf("caching did not reduce communication: %v vs %v", cmp.Cached, cmp.Plain)
	}
	if cmp.Savings <= 0 || cmp.Savings > 0.6 {
		t.Errorf("caching savings = %v", cmp.Savings)
	}
	if _, err := CompareCaching("nope"); err == nil {
		t.Error("unknown scenario compared")
	}
}

func TestTable2OtherApplications(t *testing.T) {
	t.Parallel()
	// The classifier experiment generalizes beyond Octarine: PhotoDraw and
	// Benefits keep the same qualitative orderings.
	for _, app := range []string{"photodraw", "benefits"} {
		rows, err := Table2(app)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		byName := map[string]*analysis.ClassifierEval{}
		for _, r := range rows {
			byName[r.Classifier] = r
		}
		if byName["incremental"].NewClassifications == 0 {
			t.Errorf("%s: incremental found no new classifications", app)
		}
		if byName["ifcb"].NewClassifications != 0 {
			t.Errorf("%s: ifcb produced new classifications", app)
		}
		if byName["st"].ProfiledClassifications > byName["ifcb"].ProfiledClassifications {
			t.Errorf("%s: granularity ordering violated", app)
		}
	}
	if _, err := Table2("solitaire"); err == nil {
		t.Error("unknown app evaluated")
	}
	if _, err := Table3("solitaire"); err == nil {
		t.Error("unknown app evaluated for table 3")
	}
}
