package scenario

import (
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/dist"
	"repro/internal/synthapp"
)

func TestTable1HasTwentyThreeScenarios(t *testing.T) {
	t.Parallel()
	all := Table1()
	if len(all) != 23 {
		t.Fatalf("Table 1 has %d scenarios, want 23", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Errorf("duplicate scenario %s", s.Name)
		}
		seen[s.Name] = true
		if s.Description == "" {
			t.Errorf("%s has no description", s.Name)
		}
		// Name prefix encodes the application.
		wantPrefix := map[string]string{"octarine": "o_", "photodraw": "p_", "benefits": "b_"}[s.App]
		if !strings.HasPrefix(s.Name, wantPrefix) {
			t.Errorf("%s does not carry prefix %s", s.Name, wantPrefix)
		}
	}
}

func TestPerAppPartitions(t *testing.T) {
	t.Parallel()
	counts := map[string]int{"octarine": 12, "photodraw": 7, "benefits": 4}
	total := 0
	for app, want := range counts {
		got := ForApp(app)
		if len(got) != want {
			t.Errorf("%s has %d scenarios, want %d", app, len(got), want)
		}
		total += len(got)
		training := TrainingForApp(app)
		if len(training) != want-1 {
			t.Errorf("%s has %d training scenarios, want %d", app, len(training), want-1)
		}
		big, err := BigoneForApp(app)
		if err != nil || !strings.HasSuffix(big, "bigone") {
			t.Errorf("%s bigone = %q, %v", app, big, err)
		}
	}
	if total != 23 {
		t.Errorf("partitions cover %d scenarios", total)
	}
}

func TestNewApp(t *testing.T) {
	t.Parallel()
	for _, name := range Apps() {
		app, err := NewApp(name)
		if err != nil || app == nil || app.Name != name {
			t.Errorf("NewApp(%s) = %v, %v", name, app, err)
		}
	}
	if _, err := NewApp("solitaire"); err == nil {
		t.Error("unknown app constructed")
	}
	if _, err := BigoneForApp("solitaire"); err == nil {
		t.Error("bigone for unknown app")
	}
}

func TestLookup(t *testing.T) {
	t.Parallel()
	info, err := Lookup("o_oldwp7")
	if err != nil || info.App != "octarine" {
		t.Errorf("Lookup = %+v, %v", info, err)
	}
	if _, err := Lookup("z_nothing"); err == nil {
		t.Error("unknown scenario looked up")
	}
}

// TestEveryScenarioExecutes drives each catalog entry end to end in
// profiling mode — the suite's integration smoke test.
func TestEveryScenarioExecutes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full suite execution")
	}
	for _, s := range Table1() {
		app, err := NewApp(s.App)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dist.Run(dist.Config{
			App: app, Scenario: s.Name, Mode: dist.ModeProfiling,
			Classifier: classify.New(classify.IFCB, 0),
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Profile.TotalCalls() == 0 {
			t.Errorf("%s: no inter-component communication profiled", s.Name)
		}
	}
}

// TestNewAppSynth checks the synth:<family>:<seed> application scheme.
func TestNewAppSynth(t *testing.T) {
	t.Parallel()
	app, err := NewApp("synth:skewed:42")
	if err != nil {
		t.Fatalf("NewApp(synth:skewed:42): %v", err)
	}
	direct, err := synthapp.Generate(synthapp.Config{Family: synthapp.Skewed, Seed: 42})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if app.Name != direct.App.Name {
		t.Errorf("NewApp name %q != direct generation %q", app.Name, direct.App.Name)
	}
	if _, err := NewApp("synth:skewed:42:2"); err != nil {
		t.Errorf("NewApp with scale suffix: %v", err)
	}
	for _, bad := range []string{"synth:", "synth:skewed", "synth:nope:1", "synth:skewed:x", "synth:skewed:1:y", "synth:skewed:1:9"} {
		if _, err := NewApp(bad); err == nil {
			t.Errorf("NewApp(%q) succeeded, want error", bad)
		}
	}
}
