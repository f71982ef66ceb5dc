package benefits

import (
	"context"
	"testing"

	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/profile"
)

func TestAppAssembly(t *testing.T) {
	t.Parallel()
	app := New()
	// About a dozen middle-tier component classes plus the front end.
	if n := app.Classes.Len(); n < 18 || n > 32 {
		t.Errorf("class count = %d", n)
	}
	db := app.Classes.LookupName("Database")
	if db == nil || !db.Infrastructure || db.Home != com.Server {
		t.Fatalf("Database = %+v", db)
	}
	// Developer's 3-tier default: business logic on the middle tier.
	if app.Classes.LookupName("EmployeeManager").Home != com.Server {
		t.Error("manager not on middle tier by default")
	}
	if app.Classes.LookupName("BenefitsForm").Home != com.Client {
		t.Error("front end not on client")
	}
}

func TestScenarioInventory(t *testing.T) {
	t.Parallel()
	if len(Scenarios()) != 4 {
		t.Fatalf("scenario count = %d, want 4 (Table 1)", len(Scenarios()))
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	t.Parallel()
	if _, err := dist.Run(dist.Config{App: New(), Scenario: "b_nope", Mode: dist.ModeBare}); err == nil {
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
			t.Errorf("%s: %d violations", scen, res.Violations)
		}
	}
}

func TestFigure6DistributionShape(t *testing.T) {
	t.Parallel()
	// Of ~196 components in the client and middle tier, the developer
	// placed ~187 on the middle tier; Coign keeps ~135 there, moving the
	// caching components to the client and reducing communication ~35%.
	adps := core.New(New())
	rep, err := adps.ScenarioExperiment(context.Background(), ScenBigone)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalInstances < 180 || rep.TotalInstances > 215 {
		t.Errorf("total components = %d, want ~196", rep.TotalInstances)
	}
	coignMiddle := rep.ServerInstances
	if coignMiddle < 125 || coignMiddle > 150 {
		t.Errorf("Coign middle-tier components = %d, want ~135", coignMiddle)
	}
	defaultMiddle := rep.TotalInstances - 9 // nine front-end components
	if defaultMiddle < 175 || defaultMiddle > 205 {
		t.Errorf("default middle-tier components = %d, want ~187", defaultMiddle)
	}
	if rep.Savings < 0.15 || rep.Savings > 0.5 {
		t.Errorf("savings = %v, want ~0.19-0.35", rep.Savings)
	}
	if rep.Violations != 0 {
		t.Errorf("violations = %d", rep.Violations)
	}
}

func TestCachesMoveBusinessLogicStays(t *testing.T) {
	t.Parallel()
	adps := core.New(New())
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	p, _, err := adps.ProfileScenario(ScenVueOne, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adps.Analyze(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cacheByName := map[string]bool{}
	for _, c := range cacheClasses {
		cacheByName[string(c[len("CLSID_"):])] = true
	}
	placed := map[string]com.Machine{}
	for id, m := range res.Distribution {
		if ci := p.Classifications[id]; ci != nil {
			placed[ci.Class] = m
		}
	}
	// Every cache class on the client.
	for name := range cacheByName {
		if m, ok := placed[name]; ok && m != com.Client {
			t.Errorf("cache %s placed on %v, want client", name, m)
		}
	}
	// Business logic stays on the middle tier.
	for _, logic := range []string{"EmployeeManager", "Validator", "ReportBuilder", "RowFetcher"} {
		if m, ok := placed[logic]; ok && m != com.Server {
			t.Errorf("business logic %s placed on %v, want middle tier", logic, m)
		}
	}
}

func TestViewSavingsApproximatePaper(t *testing.T) {
	t.Parallel()
	adps := core.New(New())
	rep, err := adps.ScenarioExperiment(context.Background(), ScenVueOne)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 35% communication reduction on b_vueone.
	if rep.Savings < 0.2 || rep.Savings > 0.5 {
		t.Errorf("b_vueone savings = %v, want ~0.35", rep.Savings)
	}
}

// TestMultiwayThreeTier exercises the paper's future-work extension: a
// three-machine cut (client / middle / database server) via the isolation
// heuristic, treating the database as its own terminal.
func TestMultiwayThreeTier(t *testing.T) {
	t.Parallel()
	app := New()
	res, err := dist.Run(dist.Config{
		App: app, Scenario: ScenBigone, Mode: dist.ModeProfiling,
		Classifier: classify.New(classify.IFCB, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	np := netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)

	g := graph.New()
	var clientPins, middlePins, dbPins []string
	clientPins = append(clientPins, profile.MainProgram)
	g.Node(profile.MainProgram)
	for id, ci := range p.Classifications {
		g.Node(id)
		cl := app.Classes.LookupName(ci.Class)
		switch {
		case cl != nil && cl.Infrastructure:
			dbPins = append(dbPins, id)
		case cl != nil && cl.Home == com.Client:
			clientPins = append(clientPins, id)
		case ci.Class == "EmployeeManager":
			middlePins = append(middlePins, id)
		}
	}
	for k, e := range p.Edges {
		g.AddEdge(k.Src, k.Dst, e.Time(np))
	}
	assign, weight, err := g.MultiwayCut([]graph.MultiwayTerminal{
		{Machine: "client", Pinned: clientPins},
		{Machine: "middle", Pinned: middlePins},
		{Machine: "dbserver", Pinned: dbPins},
	})
	if err != nil {
		t.Fatal(err)
	}
	if weight <= 0 {
		t.Fatalf("multiway weight = %v", weight)
	}
	counts := map[string]int{}
	for id, m := range assign {
		if ci := p.Classifications[id]; ci != nil {
			counts[m] += int(ci.Instances)
		}
	}
	if counts["middle"] == 0 || counts["client"] == 0 {
		t.Errorf("degenerate multiway assignment: %v", counts)
	}
	// The caches end up on the client here too.
	for id, m := range assign {
		if ci := p.Classifications[id]; ci != nil && ci.Class == "RecordCache" && m != "client" {
			t.Errorf("multiway put RecordCache on %s", m)
		}
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	run := func() *dist.Result {
		res, err := dist.Run(dist.Config{
			App: New(), Scenario: ScenBigone, Mode: dist.ModeDefault,
			Classifier: classify.New(classify.IFCB, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Instances != b.Instances || a.Clock.CommTime() != b.Clock.CommTime() {
		t.Error("benefits runs not deterministic")
	}
}
