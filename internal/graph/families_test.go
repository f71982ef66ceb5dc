package graph_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/synthapp"
)

// TestFamilyGraphsScaleAndPermute: the scaling and insertion-order
// properties of graph.CheckScaleAndPermute hold on the ICC graphs the
// pipeline builds for every synthetic family, pins, welds and all.
func TestFamilyGraphsScaleAndPermute(t *testing.T) {
	t.Parallel()
	for _, fam := range synthapp.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			app := fmt.Sprintf("synth:%s:%d", fam, seed)
			res, err := pipeline.Run(context.Background(), pipeline.Spec{App: app,
				Scenarios: scenario.TrainingForApp(app), Coverage: true, Seed: seed + 1})
			if err != nil {
				t.Fatalf("%s: %v", app, err)
			}
			graph.CheckScaleAndPermute(t, app, res.Analysis.Graph)
		}
	}
}
