package pipeline

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/span"
)

// TestStageSpansTile holds the span tree of a run: its top-level stages
// appear in order and tile the run without overlapping, and every child
// lies inside its parent, after its elder sibling. It reads the recorded
// spans and times nothing.
func TestStageSpansTile(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	analyze := []string{"build_graph", "cut", "check"}
	plain := map[string][]string{"open": nil, "instrument": nil, "profile": nil, "constraints": nil, "analyze": analyze}
	top := []string{"open", "instrument", "profile", "constraints", "analyze"}

	res, err := Run(ctx, Spec{Scenarios: []string{"o_oldwp0"}})
	if err != nil {
		t.Fatal(err)
	}
	checkStages(t, "plain", res.Stages, top, plain)

	res, err = Run(ctx, Spec{Scenarios: []string{"b_vueone"}, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	checkStages(t, "compare", res.Stages, append(top[:len(top):len(top)], "execute"), map[string][]string{
		"analyze": analyze, "execute": {"replay_default", "replay_coign", "measured"},
	})

	res, err = Run(ctx, Spec{App: "synth:shared-state:1", Scenarios: []string{"y_base", "y_heavy", "y_alt"},
		Coverage: true, Alias: true, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	checkStages(t, "coverage+alias+replicate", res.Stages, top, map[string][]string{
		"analyze": append(analyze[:len(analyze):len(analyze)], "replicated_cut"),
	})

	prof := res.Profile
	res, err = Analyze(ctx, Spec{App: "synth:shared-state:1"}, prof)
	if err != nil {
		t.Fatal(err)
	}
	checkStages(t, "analyze with a profile", res.Stages, []string{"open", "constraints", "analyze"}, plain)
}

// checkStages fails unless spans has the top-level stages top in order,
// each with the children children names, and every level tiles in time.
func checkStages(t *testing.T, name string, spans []span.Span, top []string, children map[string][]string) {
	t.Helper()
	kids := func(parent int) (names []string, idx []int) {
		for i, s := range spans {
			if s.Parent == parent {
				names, idx = append(names, s.Name), append(idx, i)
			}
		}
		return names, idx
	}
	tiles := func(level string, idx []int) {
		for k, i := range idx {
			s := spans[i]
			if s.Start > s.End || k > 0 && spans[idx[k-1]].End > s.Start {
				t.Errorf("%s: %s span %s [%v, %v] ends before it starts or overlaps its predecessor",
					name, level, s.Name, s.Start, s.End)
			}
		}
	}
	names, idx := kids(-1)
	if !reflect.DeepEqual(names, top) {
		t.Fatalf("%s: top-level stages %q, want %q", name, names, top)
	}
	tiles("top-level", idx)
	seen := len(idx)
	for _, p := range idx {
		parent := spans[p]
		cnames, cidx := kids(p)
		if !reflect.DeepEqual(cnames, children[parent.Name]) {
			t.Errorf("%s: %s has children %q, want %q", name, parent.Name, cnames, children[parent.Name])
		}
		tiles(parent.Name, cidx)
		for _, c := range cidx {
			if s := spans[c]; s.Start < parent.Start || s.End > parent.End {
				t.Errorf("%s: %s [%v, %v] lies outside its parent %s [%v, %v]",
					name, s.Name, s.Start, s.End, parent.Name, parent.Start, parent.End)
			}
		}
		seen += len(cidx)
	}
	if seen != len(spans) {
		t.Errorf("%s: %d spans, of which %d are stages or their children: %+v", name, len(spans), seen, spans)
	}
}
