package octarine

import (
	bytes2 "bytes"
	"context"
	"testing"

	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/core"
	"repro/internal/dist"
)

func TestAppAssembly(t *testing.T) {
	t.Parallel()
	app := New()
	if app.Name != "octarine" {
		t.Errorf("name = %s", app.Name)
	}
	// The paper describes approximately 150 component classes.
	if n := app.Classes.Len(); n < 120 || n > 170 {
		t.Errorf("class count = %d, want ~150", n)
	}
	if n := len(app.Interfaces.IIDs()); n < 10 {
		t.Errorf("interfaces = %d", n)
	}
	// Storage is server-pinned infrastructure.
	fs := app.Classes.LookupName("FileStore")
	if fs == nil || !fs.Infrastructure || fs.Home != com.Server {
		t.Fatalf("FileStore = %+v", fs)
	}
	// The widget interface is non-remotable (opaque device contexts).
	if app.Interfaces.Lookup(iWidget).Remotable {
		t.Error("IWidget should be non-remotable")
	}
	if !app.Interfaces.Lookup(iReader).Remotable {
		t.Error("IReader should be remotable")
	}
}

func TestScenarioInventory(t *testing.T) {
	t.Parallel()
	if len(Scenarios()) != 12 {
		t.Fatalf("scenario count = %d, want 12 (Table 1)", len(Scenarios()))
	}
	without := ScenariosWithoutBigone()
	if len(without) != 11 || without[len(without)-1] == ScenBigone {
		t.Fatalf("ScenariosWithoutBigone = %v", without)
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	t.Parallel()
	_, err := dist.Run(dist.Config{App: New(), Scenario: "o_nope", Mode: dist.ModeBare})
	if err == nil {
		t.Fatal("unknown scenario ran")
	}
}

func TestAllScenariosRunCleanly(t *testing.T) {
	t.Parallel()
	for _, scen := range Scenarios() {
		res, err := dist.Run(dist.Config{
			App: New(), Scenario: scen, Mode: dist.ModeDefault,
			Classifier: classify.New(classify.IFCB, 0),
		})
		if err != nil {
			t.Fatalf("%s: %v", scen, err)
		}
		if res.Violations != 0 {
			t.Errorf("%s: %d non-remotable crossings in the default distribution", scen, res.Violations)
		}
		if res.AppInstances < 300 {
			t.Errorf("%s: only %d app instances", scen, res.AppInstances)
		}
	}
}

func TestFigure5TextDocumentShape(t *testing.T) {
	t.Parallel()
	// Viewing a text-only document instantiates 458 components; in the
	// Coign distribution only the reader and the text-properties
	// component belong on the server (paper Figure 5).
	adps := core.New(New())
	rep, err := adps.ScenarioExperiment(context.Background(), ScenOldWp0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalInstances != 458 {
		t.Errorf("instances = %d, want 458", rep.TotalInstances)
	}
	// Small document: default is optimal, no savings (Table 4).
	if rep.Savings > 0.02 {
		t.Errorf("o_oldwp0 savings = %v, want ~0", rep.Savings)
	}
	// The big document moves exactly the reader and text properties.
	rep7, err := adps.ScenarioExperiment(context.Background(), ScenOldWp7)
	if err != nil {
		t.Fatal(err)
	}
	if rep7.ServerInstances != 2 {
		t.Errorf("o_oldwp7 server components = %d, want 2", rep7.ServerInstances)
	}
	if rep7.Savings < 0.8 {
		t.Errorf("o_oldwp7 savings = %v, want >= 0.8", rep7.Savings)
	}
}

func TestFigure7TableDocumentShape(t *testing.T) {
	t.Parallel()
	adps := core.New(New())
	rep, err := adps.ScenarioExperiment(context.Background(), ScenOldTb0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the reader moves; savings are marginal.
	if rep.ServerInstances != 1 {
		t.Errorf("o_oldtb0 server components = %d, want 1 (Figure 7)", rep.ServerInstances)
	}
	if rep.Savings > 0.15 {
		t.Errorf("o_oldtb0 savings = %v, want small", rep.Savings)
	}
	// The 150-page table is dominated by the scan: huge savings.
	rep3, err := adps.ScenarioExperiment(context.Background(), ScenOldTb3)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Savings < 0.9 {
		t.Errorf("o_oldtb3 savings = %v, want >= 0.9 (paper: 99%%)", rep3.Savings)
	}
}

func TestFigure8MixedDocumentShape(t *testing.T) {
	t.Parallel()
	// Embedded tables flip the optimal distribution: the page-placement
	// negotiation cluster (hundreds of components) moves to the server.
	adps := core.New(New())
	rep, err := adps.ScenarioExperiment(context.Background(), ScenOldBth)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServerInstances < 250 || rep.ServerInstances > 320 {
		t.Errorf("o_oldbth server components = %d, want ~281 (Figure 8)", rep.ServerInstances)
	}
	if rep.TotalInstances < 750 || rep.TotalInstances > 860 {
		t.Errorf("o_oldbth total components = %d, want ~786", rep.TotalInstances)
	}
	if rep.Savings < 0.5 || rep.Savings > 0.85 {
		t.Errorf("o_oldbth savings = %v, want ~0.68", rep.Savings)
	}
}

func TestCoignNeverWorseThanDefault(t *testing.T) {
	t.Parallel()
	adps := core.New(New())
	for _, scen := range []string{ScenNewDoc, ScenNewMus, ScenNewTbl, ScenOldWp0, ScenOldWp3, ScenOldTb0} {
		rep, err := adps.ScenarioExperiment(context.Background(), scen)
		if err != nil {
			t.Fatalf("%s: %v", scen, err)
		}
		// Allow a sliver of quantization slack.
		if float64(rep.CoignComm) > float64(rep.DefaultComm)*1.02 {
			t.Errorf("%s: coign %v worse than default %v", scen, rep.CoignComm, rep.DefaultComm)
		}
		if rep.Violations != 0 {
			t.Errorf("%s: %d violations", scen, rep.Violations)
		}
		if rep.Unknown != 0 {
			t.Errorf("%s: %d unknown classifications in the optimized scenario", scen, rep.Unknown)
		}
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	run := func() *dist.Result {
		res, err := dist.Run(dist.Config{
			App: New(), Scenario: ScenOldBth, Mode: dist.ModeDefault,
			Classifier: classify.New(classify.IFCB, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Instances != b.Instances {
		t.Errorf("instance counts differ: %d vs %d", a.Instances, b.Instances)
	}
	if a.Clock.CommTime() != b.Clock.CommTime() {
		t.Errorf("comm time differs: %v vs %v", a.Clock.CommTime(), b.Clock.CommTime())
	}
	if a.TrappedCalls != b.TrappedCalls {
		t.Errorf("calls differ: %d vs %d", a.TrappedCalls, b.TrappedCalls)
	}
}

func TestClassificationsStableAcrossRuns(t *testing.T) {
	t.Parallel()
	// The same scenario profiled twice yields identical classification
	// ids — the property the lightweight runtime depends on to correlate
	// instantiations with profiles.
	profileIDs := func() map[string]bool {
		res, err := dist.Run(dist.Config{
			App: New(), Scenario: ScenOldWp0, Mode: dist.ModeProfiling,
			Classifier: classify.New(classify.IFCB, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[string]bool)
		for _, ci := range res.Profile.Classifications {
			ids[ci.ID] = true
		}
		return ids
	}
	a, b := profileIDs(), profileIDs()
	if len(a) != len(b) {
		t.Fatalf("classification counts differ: %d vs %d", len(a), len(b))
	}
	for id := range a {
		if !b[id] {
			t.Fatalf("classification %s not reproduced", id)
		}
	}
}

func TestClassifierGranularityOrdering(t *testing.T) {
	t.Parallel()
	// ST sees only classes; call-chain classifiers see context. On a GUI
	// of hundreds of widgets, IFCB must find at least as many
	// classifications as ST.
	count := func(kind classify.Kind) int {
		res, err := dist.Run(dist.Config{
			App: New(), Scenario: ScenOldBth, Mode: dist.ModeProfiling,
			Classifier: classify.New(kind, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Profile.Classifications)
	}
	st := count(classify.ST)
	stcb := count(classify.STCB)
	ifcb := count(classify.IFCB)
	if !(st <= stcb && stcb <= ifcb) {
		t.Errorf("granularity ordering violated: st=%d stcb=%d ifcb=%d", st, stcb, ifcb)
	}
	if st < 30 {
		t.Errorf("st classifications = %d, should approximate classes used", st)
	}
}

func TestTextServicesStayWithDisplay(t *testing.T) {
	t.Parallel()
	// The flow's text services must not drift to the server.
	adps := core.New(New())
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	p, _, err := adps.ProfileScenario(ScenOldWp7, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adps.Analyze(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range res.ServerComponents(p) {
		switch cp.Class {
		case "DocReader", "TextProps", "FileStore":
		default:
			t.Errorf("unexpected server component %s", cp.Class)
		}
	}
}

func TestProfileStorageSublinearInExecutionLength(t *testing.T) {
	t.Parallel()
	// Paper §2: because communication is summarized online into
	// exponential size buckets per classification pair, profile storage
	// does not grow linearly with execution time. The 150-page table
	// performs ~20x the calls of the 5-page table but its profile is
	// barely larger.
	encSize := func(scen string) (calls int64, bytes int) {
		res, err := dist.Run(dist.Config{
			App: New(), Scenario: scen, Mode: dist.ModeProfiling,
			Classifier: classify.New(classify.IFCB, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes2.Buffer
		if err := res.Profile.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return res.Profile.TotalCalls(), buf.Len()
	}
	smallCalls, smallBytes := encSize(ScenOldTb0)
	bigCalls, bigBytes := encSize(ScenBigone)
	callRatio := float64(bigCalls) / float64(smallCalls)
	sizeRatio := float64(bigBytes) / float64(smallBytes)
	if callRatio < 3 {
		t.Fatalf("call ratio only %.1f; scenario sizes too similar", callRatio)
	}
	if sizeRatio > callRatio/2 {
		t.Errorf("profile storage grew near-linearly: calls x%.1f, bytes x%.1f",
			callRatio, sizeRatio)
	}
}
