package coign

// Top-level regression gate: `go test .` asserts the headline results of
// the reproduction without running the full benchmark harness.

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

func TestHeadlineFigure5(t *testing.T) {
	t.Parallel()
	res, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{"o_oldwp7"}, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Experiment
	if row.ServerInstances != 2 {
		t.Errorf("Octarine text: %d server components, want 2 (paper Figure 5)", row.ServerInstances)
	}
	if row.Savings < 0.8 {
		t.Errorf("Octarine text savings = %.2f", row.Savings)
	}
}

func TestHeadlineFigure4(t *testing.T) {
	t.Parallel()
	res, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{"p_oldmsr"}, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Experiment
	if row.ServerInstances != 8 {
		t.Errorf("PhotoDraw: %d server components, want 8 (paper Figure 4)", row.ServerInstances)
	}
	if row.TotalInstances < 280 || row.TotalInstances > 310 {
		t.Errorf("PhotoDraw components = %d, want ~295", row.TotalInstances)
	}
}

func TestHeadlineNeverWorseAndPredictionEnvelope(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs all 23 scenarios")
	}
	rows, err := experiments.Tables4And5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 23 {
		t.Fatalf("rows = %d, want 23", len(rows))
	}
	for _, res := range rows {
		r, name := res.Experiment, res.Spec.Scenarios[0]
		if float64(r.CoignComm) > float64(r.DefaultComm)*1.02 {
			t.Errorf("%s: Coign (%v) worse than default (%v)", name, r.CoignComm, r.DefaultComm)
		}
		e := r.PredictionErr
		if e < 0 {
			e = -e
		}
		if e > 0.08 {
			t.Errorf("%s: prediction error %.1f%% outside the paper's ±8%%", name, e*100)
		}
		if r.Violations != 0 {
			t.Errorf("%s: %d non-remotable crossings", name, r.Violations)
		}
	}
}
