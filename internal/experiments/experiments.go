// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each function returns the rows of one exhibit; the
// coign CLI prints them and the benchmark harness in the repository root
// drives them under testing.B.
package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/scenario"
)

// Table2 evaluates all seven instance classifiers on an application:
// profile every scenario except bigone, then correlate bigone instances
// against the profiled classifications.
func Table2(app string) ([]*analysis.ClassifierEval, error) {
	return classifierTable(app, classify.Kinds(), []int{0})
}

// Table3Depths are the stack-walk depths of paper Table 3 (0 = complete).
var Table3Depths = []int{1, 2, 3, 4, 8, 16, 0}

// Table3 evaluates the IFCB classifier at limited stack depths.
func Table3(app string) ([]*analysis.ClassifierEval, error) {
	return classifierTable(app, []classify.Kind{classify.IFCB}, Table3Depths)
}

// classifierTable evaluates every (kind, depth) pair on one session of
// the application, kinds outermost.
func classifierTable(app string, kinds []classify.Kind, depths []int) ([]*analysis.ClassifierEval, error) {
	adps, err := pipeline.Open(pipeline.Spec{App: app})
	if err != nil {
		return nil, err
	}
	training := scenario.TrainingForApp(app)
	big, err := scenario.BigoneForApp(app)
	if err != nil {
		return nil, err
	}
	var rows []*analysis.ClassifierEval
	for _, kind := range kinds {
		for _, depth := range depths {
			ev, err := adps.ClassifierAccuracy(kind, depth, training, big)
			if err != nil {
				return nil, fmt.Errorf("experiments: classifier %s depth %d: %w", kind, depth, err)
			}
			rows = append(rows, ev)
		}
	}
	return rows, nil
}

// Tables4And5 runs every scenario of Table 1 through the pipeline. One
// pass produces both tables: communication time (Table 4) and execution
// time prediction accuracy (Table 5). Scenarios run concurrently on a
// bounded worker pool — each builds an independent pipeline — and the rows
// come back in Table 1 order.
func Tables4And5(ctx context.Context) ([]*pipeline.Result, error) {
	return par.Map(ctx, scenario.Table1(), func(ctx context.Context, s scenario.Info) (*pipeline.Result, error) {
		row, err := pipeline.Run(ctx, pipeline.Spec{Scenarios: []string{s.Name}, Compare: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.Name, err)
		}
		return row, nil
	})
}

// FigureRow summarizes one distribution figure.
type FigureRow struct {
	Figure            string
	Scenario          string
	TotalInstances    int
	ServerInstances   int
	NonRemotableEdges int
	PaperNote         string
}

// figureSpec maps one of the paper's distribution figures to a scenario.
type figureSpec struct {
	figure, scenario, note string
}

var figureSpecs = []figureSpec{
	{"Figure 4", "p_oldmsr", "paper: 8 of 295 components on the server"},
	{"Figure 5", "o_oldwp7", "paper: 2 of 458 on the server (reader + text properties)"},
	{"Figure 6", "b_bigone", "paper: 135 of 196 on the middle tier (programmer chose 187)"},
	{"Figure 7", "o_oldtb0", "paper: 1 of 476 on the server"},
	{"Figure 8", "o_oldbth", "paper: 281 of 786 on the server"},
}

// Figures regenerates the five distribution figures, one figure per
// worker on a bounded pool, in the paper's figure order.
func Figures(ctx context.Context) ([]FigureRow, error) {
	return par.Map(ctx, figureSpecs, func(ctx context.Context, spec figureSpec) (FigureRow, error) {
		res, err := pipeline.Run(ctx, pipeline.Spec{Scenarios: []string{spec.scenario}, Compare: true})
		if err != nil {
			return FigureRow{}, err
		}
		return FigureRow{
			Figure:            spec.figure,
			Scenario:          spec.scenario,
			TotalInstances:    res.Experiment.TotalInstances,
			ServerInstances:   res.Experiment.ServerInstances,
			NonRemotableEdges: res.NonRemotableEdges,
			PaperNote:         spec.note,
		}, nil
	})
}

// PrintTable2 renders Table 2 in the paper's layout.
func PrintTable2(w io.Writer, rows []*analysis.ClassifierEval) {
	fmt.Fprintf(w, "%-24s %10s %8s %12s %12s\n",
		"Instance Classifier", "Profiled", "New", "Inst/Class", "Avg Corr")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %10d %8d %12.1f %12.3f\n",
			r.Classifier, r.ProfiledClassifications, r.NewClassifications,
			r.AvgInstancesPerClassification, r.AvgCorrelation)
	}
}

// PrintTable3 renders Table 3.
func PrintTable3(w io.Writer, rows []*analysis.ClassifierEval) {
	fmt.Fprintf(w, "%-12s %10s %12s %12s\n", "Stack Depth", "Profiled", "Inst/Class", "Avg Corr")
	for _, r := range rows {
		depth := fmt.Sprintf("%d", r.Depth)
		if r.Depth == 0 {
			depth = "complete"
		}
		fmt.Fprintf(w, "%-12s %10d %12.1f %12.3f\n",
			depth, r.ProfiledClassifications, r.AvgInstancesPerClassification, r.AvgCorrelation)
	}
}

// PrintTable4 renders Table 4 (communication time). The DefViol column
// surfaces analysis.Result.DefaultViolations: scenarios whose as-shipped
// distribution splits co-location constraints and was never realizable.
func PrintTable4(w io.Writer, rows []*pipeline.Result) {
	fmt.Fprintf(w, "%-10s %12s %12s %9s %8s\n", "Scenario", "Default", "Coign", "Savings", "DefViol")
	for _, r := range rows {
		e := r.Experiment
		fmt.Fprintf(w, "%-10s %11.3fs %11.3fs %8.0f%% %8d\n",
			r.Spec.Scenarios[0], e.DefaultComm.Seconds(), e.CoignComm.Seconds(), e.Savings*100,
			r.DefaultViolations)
	}
}

// PrintTable5 renders Table 5 (prediction accuracy).
func PrintTable5(w io.Writer, rows []*pipeline.Result) {
	fmt.Fprintf(w, "%-10s %12s %12s %8s\n", "Scenario", "Predicted", "Measured", "Error")
	for _, r := range rows {
		e := r.Experiment
		fmt.Fprintf(w, "%-10s %11.1fs %11.1fs %+7.1f%%\n",
			r.Spec.Scenarios[0], e.PredictedExec.Seconds(), e.MeasuredExec.Seconds(), e.PredictionErr*100)
	}
}

// PrintFigures renders the distribution-figure summaries.
func PrintFigures(w io.Writer, rows []FigureRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "%s (%s): %d of %d components on the server; %d non-remotable edges\n    %s\n",
			r.Figure, r.Scenario, r.ServerInstances, r.TotalInstances,
			r.NonRemotableEdges, r.PaperNote)
	}
}
