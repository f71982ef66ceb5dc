package experiments

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/synthapp"
)

// TestPipelinePropertyAllFamilies drives the full pipeline over every
// generator family for a handful of seeds; the CI pipeline-property job
// runs the same harness over the wide seed matrix via `coign synth
// -harness`.
func TestPipelinePropertyAllFamilies(t *testing.T) {
	t.Parallel()
	for _, fam := range synthapp.Families() {
		for seed := int64(0); seed < 3; seed++ {
			fam, seed := fam, seed
			t.Run(fmt.Sprintf("%s/seed%d", fam, seed), func(t *testing.T) {
				t.Parallel()
				rep, err := RunPipelineProperty(context.Background(), synthapp.Config{Family: fam, Seed: seed})
				if err != nil {
					t.Fatalf("pipeline: %v", err)
				}
				for _, c := range rep.Checks {
					if !c.OK {
						t.Errorf("invariant %s failed: %s", c.Name, c.Detail)
					}
				}
				if rep.Failed == 0 && rep.UncoveredEdges == 0 {
					t.Error("no uncovered edges reported despite planted latent activations")
				}
				// The harness rides the production path: the same spec through
				// pipeline.Run cuts to the same weight, bit for bit.
				if fam == synthapp.ThreeTier {
					name := fmt.Sprintf("synth:%s:%d", fam, seed)
					res, err := pipeline.Run(context.Background(), pipeline.Spec{
						App: name, Scenarios: scenario.TrainingForApp(name),
						Coverage: true, Replicate: true, Seed: seed + 1,
					})
					if err != nil {
						t.Fatalf("pipeline.Run: %v", err)
					}
					if res.Analysis.Cut.Weight != rep.CutWeight {
						t.Errorf("harness cut weight %v, pipeline.Run %v", rep.CutWeight, res.Analysis.Cut.Weight)
					}
				}
			})
		}
	}
}

// TestPipelineMatrixSummary smoke-tests the sweep used by CI with a
// minimal matrix.
func TestPipelineMatrixSummary(t *testing.T) {
	t.Parallel()
	sum, err := RunPipelineMatrix(context.Background(), 1, 1)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	if want := len(synthapp.Families()); sum.Runs != want {
		t.Fatalf("runs = %d, want %d", sum.Runs, want)
	}
	if sum.Failed != 0 {
		for _, r := range sum.Reports {
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("%s seed %d: %s: %s", r.Family, r.Seed, c.Name, c.Detail)
				}
			}
		}
		t.Fatalf("matrix reported %d failing runs", sum.Failed)
	}
}
