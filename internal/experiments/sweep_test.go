package experiments

import (
	"context"
	"errors"
	"testing"

	"repro/internal/pipeline"
)

// TestSweepMapsPaperApp replays PhotoDraw's bigone under every map its
// constraints allow: ten free weld groups, 1,024 maps, and both cuts,
// product-priced and exact-priced, at the replay optimum. An eleventh
// group, SpriteCache's, is welded to the pinned main program, so it keeps
// the client: on the server it splits that weld (72 violations).
func TestSweepMapsPaperApp(t *testing.T) {
	t.Parallel()
	sw, err := SweepMaps(context.Background(), pipeline.Spec{Scenarios: []string{"p_bigone"}})
	if err != nil {
		t.Fatal(err)
	}
	if sw.FreeGroups != 10 || sw.Maps != 1024 {
		t.Errorf("swept %d free groups, %d maps; want 10 and 1024", sw.FreeGroups, sw.Maps)
	}
	if sw.Coign != sw.Optimum || sw.Exact != sw.Optimum {
		t.Errorf("coign %v, exact %v, optimum %v: both cuts must replay at the optimum", sw.Coign, sw.Exact, sw.Optimum)
	}
	for _, spec := range []pipeline.Spec{
		{Scenarios: []string{"nope"}},
		{Scenarios: []string{"p_bigone", "p_oldmsr"}},
		{Scenarios: []string{"p_bigone"}, Coverage: true},
	} {
		if _, err := SweepMaps(context.Background(), spec); err == nil {
			t.Errorf("swept %+v", spec)
		}
	}
}

// TestSweepMapsRefusesTooMany: a scale-4 skewed app has more free weld
// groups than the sweep enumerates, and the sweep refuses it with the
// typed error, which it returns before its first replay.
func TestSweepMapsRefusesTooMany(t *testing.T) {
	t.Parallel()
	sw, err := SweepMaps(context.Background(), pipeline.Spec{App: "synth:skewed:0:4", Scenarios: []string{"y_bigone"}})
	var tooMany *TooManyGroupsError
	if !errors.As(err, &tooMany) {
		t.Fatalf("sweep = %+v, %v; want a *TooManyGroupsError", sw, err)
	}
	if tooMany.FreeGroups <= MaxSweepGroups || tooMany.Scenario != "y_bigone" {
		t.Errorf("refusal %+v", tooMany)
	}
}
