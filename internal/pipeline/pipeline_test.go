package pipeline

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/com"
	"repro/internal/scenario"
	"repro/internal/synthapp"
)

func TestNormalizedDefaults(t *testing.T) {
	t.Parallel()
	s, err := Spec{Scenarios: []string{"o_oldwp0"}}.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	if s.App != "octarine" || s.Network != "10BaseT" || s.Classifier != "ifcb" || s.Seed != 1 {
		t.Fatalf("defaults not filled: %+v", s)
	}
}

func TestNormalizedRejects(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		spec Spec
	}{
		{"no scenarios", Spec{}},
		{"unknown scenario for inference", Spec{Scenarios: []string{"nope"}}},
		{"bad pin machine", Spec{Scenarios: []string{"o_oldwp0"}, Pins: map[string]string{"X": "middle"}}},
		{"compare with two scenarios", Spec{Scenarios: []string{"o_oldwp0", "o_oldwp3"}, Compare: true}},
		{"compare with coverage", Spec{Scenarios: []string{"o_oldwp0"}, Compare: true, Coverage: true}},
		{"negative depth", Spec{Scenarios: []string{"o_oldwp0"}, Depth: -7}},
		{"NaN theta", Spec{Scenarios: []string{"o_oldwp0"}, Theta: math.NaN()}},
		{"negative theta", Spec{Scenarios: []string{"o_oldwp0"}, Theta: -0.1}},
		{"theta of one", Spec{Scenarios: []string{"o_oldwp0"}, Theta: 1}},
		{"theta above one", Spec{Scenarios: []string{"o_oldwp0"}, Theta: 1.5}},
		{"infinite theta", Spec{Scenarios: []string{"o_oldwp0"}, Theta: math.Inf(1)}},
	}
	for _, c := range cases {
		if _, err := c.spec.Normalized(); err == nil {
			t.Errorf("%s: Normalized accepted %+v", c.name, c.spec)
		}
	}
}

// TestRunDeterministic: two runs of one normalized spec must produce
// byte-identical canonical JSON — the contract that makes the CLI and the
// job service interchangeable.
func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	spec := Spec{App: "synth:three-tier:1", Scenarios: scenario.TrainingForApp("synth:three-tier:1")}
	if len(spec.Scenarios) == 0 {
		t.Fatal("no training scenarios for synth:three-tier:1")
	}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run (second): %v", err)
	}
	ab, err := MarshalResult(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := MarshalResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("two runs of the same spec diverge:\n%s\nvs\n%s", ab, bb)
	}
	if a.Analysis == nil || a.ADPS == nil || a.Profile == nil {
		t.Fatal("internal handles not populated")
	}
	if bytes.Contains(ab, []byte("cutDuration")) {
		t.Fatal("telemetry leaked into the canonical encoding")
	}
}

// TestRepeatedScenariosWeightProfile: the merged profile counts one
// profiling run per Spec.Scenarios entry, so a scenario named twice weighs
// twice — the paper's expected-usage mix, with no mixer of its own.
func TestRepeatedScenariosWeightProfile(t *testing.T) {
	t.Parallel()
	const app = "synth:pipeline:3"
	once, err := Run(context.Background(), Spec{App: app, Scenarios: []string{synthapp.ScenBase}})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Run(context.Background(), Spec{App: app, Scenarios: []string{synthapp.ScenBase, synthapp.ScenBase}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := twice.Profile.TotalCalls(), 2*once.Profile.TotalCalls(); got != want {
		t.Errorf("twice: %d calls, want %d (2x once)", got, want)
	}
	if got, want := len(twice.Profile.Scenarios), 2*len(once.Profile.Scenarios); got != want {
		t.Errorf("twice: %d scenario runs, want %d", got, want)
	}
}

// TestRunCompare: compare mode fills the experiment block.
func TestRunCompare(t *testing.T) {
	t.Parallel()
	res, err := Run(context.Background(), Spec{Scenarios: []string{"b_vueone"}, Compare: true})
	if err != nil {
		t.Fatalf("Run(compare): %v", err)
	}
	if res.Experiment == nil {
		t.Fatal("compare run produced no experiment block")
	}
	if res.Experiment.TotalInstances <= 0 {
		t.Fatalf("experiment reports %d total instances", res.Experiment.TotalInstances)
	}
}

// TestRunPins: a pin is honoured — and a pin matching nothing is an error —
// in cut mode and in Compare mode alike. Unpinned, o_oldwp0 puts only
// FileStore on the server.
func TestRunPins(t *testing.T) {
	t.Parallel()
	for _, compare := range []bool{false, true} {
		res, err := Run(context.Background(), Spec{
			Scenarios: []string{"o_oldwp0"},
			Pins:      map[string]string{"DocReader": "server"},
			Compare:   compare,
		})
		if err != nil {
			t.Fatalf("compare=%v: Run with pin: %v", compare, err)
		}
		pinned := 0
		for _, ci := range res.Profile.Classifications {
			if ci.Class != "DocReader" {
				continue
			}
			pinned++
			if m := res.Analysis.Distribution[ci.ID]; m != com.Server {
				t.Errorf("compare=%v: pinned classification %s placed on %v", compare, ci.ID, m)
			}
		}
		if pinned == 0 {
			t.Errorf("compare=%v: no DocReader classification profiled", compare)
		}
		if compare && res.Experiment.Violations != 0 {
			t.Errorf("pinned distribution ran with %d violations", res.Experiment.Violations)
		}
		if _, err := Run(context.Background(), Spec{
			Scenarios: []string{"o_oldwp0"},
			Pins:      map[string]string{"NoSuchClass": "server"},
			Compare:   compare,
		}); err == nil || !strings.Contains(err.Error(), "matched no profiled classifications") {
			t.Errorf("compare=%v: unmatched pin err = %v", compare, err)
		}
	}
}

// TestOpen: the opener rejects a name it cannot resolve, and with Alias
// returns a session whose refinement is already installed.
func TestOpen(t *testing.T) {
	t.Parallel()
	for _, bad := range []Spec{
		{App: "solitaire"},
		{},
		{App: "octarine", Network: "carrier-pigeon"},
		{App: "octarine", Classifier: "nope"},
		{App: "synth:three-tier:x"},
	} {
		if adps, err := Open(bad); err == nil || adps != nil {
			t.Errorf("Open(%+v) = %v, %v; want an error and no session", bad, adps, err)
		}
	}
	adps, err := Open(Spec{App: "synth:read-replica:1", Alias: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if adps.Alias == nil {
		t.Fatal("Alias spec opened a session without the points-to result")
	}
	if adps.AnalysisOptions.Constraints == adps.Static.Constraints || adps.AnalysisOptions.Purity == adps.Purity {
		t.Error("alias-refined constraint set and purity closure not installed")
	}
	if adps.Image.Instrumented() {
		t.Error("Open instrumented the image; that is Run's step")
	}
}

// TestAnalyze: a profile in hand gets Run's tail — the same cut, coverage
// and pins honoured — from a spec that names only the app; there is no
// profiling run to compare against, so Compare fails.
func TestAnalyze(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	run, err := Run(ctx, Spec{Scenarios: []string{"o_oldwp0"}, Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.CoverageCoLocations == 0 {
		t.Fatal("o_oldwp0 leaves no uncovered edge to weld")
	}
	spec := Spec{App: "octarine", Coverage: true}
	res, err := Analyze(ctx, spec, run.Profile)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.PredictedComm != run.PredictedComm || res.Instances != run.Instances ||
		res.CoverageCoLocations != run.CoverageCoLocations || len(res.ServerPlacements) != len(run.ServerPlacements) {
		t.Errorf("Analyze = %v %+v %d welds, Run = %v %+v %d welds", res.PredictedComm, res.Instances,
			res.CoverageCoLocations, run.PredictedComm, run.Instances, run.CoverageCoLocations)
	}
	var sb strings.Builder
	if res.WriteText(&sb); !strings.HasPrefix(sb.String(), "octarine on 10BaseT (ifcb classifier)\n") {
		t.Errorf("scenario-less header: %q", sb.String())
	}
	spec.Pins = map[string]string{"NoSuchClass": "server"}
	if _, err := Analyze(ctx, spec, run.Profile); err == nil || !strings.Contains(err.Error(), "matched no profiled classifications") {
		t.Errorf("unmatched pin err = %v", err)
	}
	for _, bad := range []Spec{{}, {App: "solitaire"}, {Scenarios: []string{"o_oldwp0"}, Compare: true}} {
		if _, err := Analyze(ctx, bad, run.Profile); err == nil {
			t.Errorf("Analyze(%+v) accepted", bad)
		}
	}
}

// TestRunCancelled: a cancelled context aborts the run with its error.
func TestRunCancelled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Spec{Scenarios: []string{"o_oldwp0"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run(cancelled) err = %v, want context.Canceled", err)
	}
}

func TestWriteTextRenders(t *testing.T) {
	t.Parallel()
	res, err := Run(context.Background(), Spec{Scenarios: []string{"o_oldwp0"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"classifications:", "predicted comm:", "o_oldwp0 on 10BaseT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}
