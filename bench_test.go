package coign

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§4). Each benchmark prints its exhibit once (go test -bench
// runs with -v show the rows) and reports headline values as benchmark
// metrics so regressions are visible in -benchmem output diffs.
//
//	go test -bench=. -benchmem
//
// Tables: 1 (scenario suite), 2 (classifier accuracy), 3 (stack depth),
// 4 (communication time), 5 (prediction accuracy). Figures: 4 (PhotoDraw),
// 5 (Octarine text), 6 (Benefits), 7 (Octarine table), 8 (Octarine mixed).
// Plus the §3.2 instrumentation-overhead measurements.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/scenario"
)

var benchPrint sync.Map // exhibit name -> *sync.Once

func printOnce(name string, f func()) {
	v, _ := benchPrint.LoadOrStore(name, &sync.Once{})
	v.(*sync.Once).Do(f)
}

// BenchmarkTable1ScenarioSuite drives all twenty-three profiling scenarios
// through the instrumented runtime — the cost of one full profiling pass
// over the application suite.
func BenchmarkTable1ScenarioSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range scenario.Table1() {
			app, err := scenario.NewApp(s.App)
			if err != nil {
				b.Fatal(err)
			}
			res, err := dist.Run(dist.Config{
				App: app, Scenario: s.Name, Mode: dist.ModeProfiling,
				Classifier: classify.New(classify.IFCB, 0),
			})
			if err != nil {
				b.Fatalf("%s: %v", s.Name, err)
			}
			if res.Profile.TotalCalls() == 0 {
				b.Fatalf("%s: empty profile", s.Name)
			}
		}
	}
	printOnce("table1", func() {
		fmt.Fprintf(os.Stderr, "\nTable 1: %d profiling scenarios across 3 applications\n\n",
			len(scenario.Table1()))
	})
}

// BenchmarkTable2ClassifierAccuracy regenerates Table 2: all seven
// instance classifiers profiled on Octarine's scenario suite and evaluated
// on the bigone synthesis.
func BenchmarkTable2ClassifierAccuracy(b *testing.B) {
	var rows []*analysis.ClassifierEval
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2("octarine")
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("table2", func() {
		fmt.Fprintln(os.Stderr, "\nTable 2 (classifier accuracy, Octarine):")
		experiments.PrintTable2(os.Stderr, rows)
	})
	for _, r := range rows {
		if r.Classifier == "ifcb" {
			b.ReportMetric(float64(r.ProfiledClassifications), "ifcb-classifications")
			b.ReportMetric(r.AvgCorrelation, "ifcb-correlation")
		}
		if r.Classifier == "incremental" {
			b.ReportMetric(float64(r.NewClassifications), "incremental-new")
		}
	}
}

// BenchmarkTable3StackDepth regenerates Table 3: IFCB accuracy as a
// function of stack-walk depth.
func BenchmarkTable3StackDepth(b *testing.B) {
	var rows []*analysis.ClassifierEval
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3("octarine")
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("table3", func() {
		fmt.Fprintln(os.Stderr, "\nTable 3 (IFCB accuracy vs stack depth, Octarine):")
		experiments.PrintTable3(os.Stderr, rows)
	})
	b.ReportMetric(rows[len(rows)-1].AvgCorrelation, "complete-depth-correlation")
}

func benchTables45(b *testing.B) []*pipeline.Result {
	var rows []*pipeline.Result
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Tables4And5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

// BenchmarkTable4CommunicationTime regenerates Table 4: communication time
// for the default and Coign-chosen distributions of all 23 scenarios.
func BenchmarkTable4CommunicationTime(b *testing.B) {
	rows := benchTables45(b)
	printOnce("table4", func() {
		fmt.Fprintln(os.Stderr, "\nTable 4 (communication time):")
		experiments.PrintTable4(os.Stderr, rows)
	})
	var worst float64 = 0
	var best float64 = 0
	for _, res := range rows {
		r := res.Experiment
		if r.Savings > best {
			best = r.Savings
		}
		if float64(r.CoignComm) > float64(r.DefaultComm)*1.02 {
			worst++
		}
	}
	b.ReportMetric(best*100, "best-savings-%")
	b.ReportMetric(worst, "scenarios-worse-than-default")
}

// BenchmarkTable5PredictionAccuracy regenerates Table 5: predicted versus
// measured execution time for the Coign distributions.
func BenchmarkTable5PredictionAccuracy(b *testing.B) {
	rows := benchTables45(b)
	printOnce("table5", func() {
		fmt.Fprintln(os.Stderr, "\nTable 5 (prediction accuracy):")
		experiments.PrintTable5(os.Stderr, rows)
	})
	var maxErr float64
	for _, r := range rows {
		e := r.Experiment.PredictionErr
		if e < 0 {
			e = -e
		}
		if e > maxErr {
			maxErr = e
		}
	}
	b.ReportMetric(maxErr*100, "max-error-%")
}

func benchFigure(b *testing.B, name, scenario string) {
	var row *pipeline.Experiment
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{scenario}, Compare: true})
		if err != nil {
			b.Fatal(err)
		}
		row = res.Experiment
	}
	printOnce(name, func() {
		fmt.Fprintf(os.Stderr, "\n%s (%s): %d of %d components on the server, savings %.0f%%\n",
			name, scenario, row.ServerInstances, row.TotalInstances, row.Savings*100)
	})
	b.ReportMetric(float64(row.ServerInstances), "server-components")
	b.ReportMetric(float64(row.TotalInstances), "total-components")
	b.ReportMetric(row.Savings*100, "savings-%")
}

// BenchmarkFigure4PhotoDraw regenerates Figure 4: the PhotoDraw
// distribution (paper: 8 of 295 components on the server).
func BenchmarkFigure4PhotoDraw(b *testing.B) {
	benchFigure(b, "Figure 4", "p_oldmsr")
}

// BenchmarkFigure5Octarine regenerates Figure 5: the Octarine text
// distribution (paper: 2 of 458 components on the server).
func BenchmarkFigure5Octarine(b *testing.B) {
	benchFigure(b, "Figure 5", "o_oldwp7")
}

// BenchmarkFigure6Benefits regenerates Figure 6: the Benefits distribution
// (paper: Coign keeps 135 of 196 on the middle tier vs the programmer's 187).
func BenchmarkFigure6Benefits(b *testing.B) {
	benchFigure(b, "Figure 6", "b_bigone")
}

// BenchmarkFigure7OctarineTable regenerates Figure 7: the Octarine table
// distribution (paper: 1 of 476 components on the server).
func BenchmarkFigure7OctarineTable(b *testing.B) {
	benchFigure(b, "Figure 7", "o_oldtb0")
}

// BenchmarkFigure8OctarineMixed regenerates Figure 8: the Octarine mixed
// text+tables distribution (paper: 281 of 786 components on the server).
func BenchmarkFigure8OctarineMixed(b *testing.B) {
	benchFigure(b, "Figure 8", "o_oldbth")
}

// BenchmarkProfilingOverhead measures the wall-clock cost of the profiling
// interface informer relative to the un-instrumented application (paper
// §3.2: up to 85%, typically ~45%).
func BenchmarkProfilingOverhead(b *testing.B) {
	var row *experiments.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.MeasureOverhead("o_oldwp7", 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("overhead", func() {
		fmt.Fprintf(os.Stderr, "\nInstrumentation overhead: %s\n", row)
	})
	b.ReportMetric(row.ProfilingOverhead*100, "profiling-overhead-%")
}

// BenchmarkDistributionInformerOverhead measures the overhead of the
// lightweight distribution runtime, which sizes only the calls that cross
// machines (paper §3.2's distribution informer: under 3%).
func BenchmarkDistributionInformerOverhead(b *testing.B) {
	var row *experiments.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.MeasureOverhead("o_oldwp7", 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.DistributionOverhead*100, "distribution-overhead-%")
}

// BenchmarkAdaptiveRepartitioning measures §4.4's per-network re-analysis:
// one profile re-cut for five network generations.
func BenchmarkAdaptiveRepartitioning(b *testing.B) {
	var rows []experiments.AdaptiveRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Adaptive(context.Background(), "o_oldwp7",
			[]string{"ISDN", "10BaseT", "100BaseT", "ATM", "SAN"})
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("adaptive", func() {
		fmt.Fprintln(os.Stderr, "\nAdaptive re-partitioning (o_oldwp7):")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "  %-10s server-instances=%d predicted=%v savings=%.0f%%\n",
				r.Network, r.ServerInstances, r.PredictedComm, r.Savings*100)
		}
	})
}
