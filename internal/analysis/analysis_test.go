package analysis

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/com"
	"repro/internal/netsim"
	"repro/internal/profile"
)

func np() *netsim.Profile {
	return netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)
}

func nopObject() com.Object { return com.ObjectFunc(nil) }

// benchApp: GUI class (client-pinned), Storage class (server
// infrastructure), Reader and Worker unconstrained.
func benchApp() *com.App {
	classes := com.NewClassRegistry()
	classes.Register(&com.Class{ID: "C_GUI", Name: "GUI",
		APIs: []string{com.APIUserWindow}, New: nopObject})
	classes.Register(&com.Class{ID: "C_Storage", Name: "Storage",
		APIs: []string{com.APIFileRead}, Home: com.Server, Infrastructure: true,
		New: nopObject})
	classes.Register(&com.Class{ID: "C_Reader", Name: "Reader", New: nopObject})
	classes.Register(&com.Class{ID: "C_Worker", Name: "Worker", New: nopObject})
	return &com.App{Name: "bench", Classes: classes}
}

// benchProfile: main->GUI chatter (small), Reader<->Storage heavy,
// Reader->GUI light. The optimal cut moves Reader to the server.
func benchProfile() *profile.Profile {
	p := profile.New("bench", "ifcb")
	p.Scenarios = []string{"s"}
	add := func(id, class string, n int64) {
		for i := int64(0); i < n; i++ {
			p.AddInstance(profile.InstanceRecord{ID: uint64(len(p.Instances) + 1),
				Class: class, Classification: id})
		}
	}
	add("gui@1", "GUI", 3)
	add("storage@1", "Storage", 1)
	add("reader@1", "Reader", 1)
	add("worker@1", "Worker", 1)

	for i := 0; i < 10; i++ {
		p.Edge(profile.MainProgram, "gui@1").Record(64, 16, false)
	}
	for i := 0; i < 500; i++ {
		p.Edge("reader@1", "storage@1").Record(64, 8192, false)
	}
	for i := 0; i < 5; i++ {
		p.Edge("reader@1", "gui@1").Record(128, 16, false)
	}
	// Worker floats free of everything.
	p.Sort()
	return p
}

func TestAnalyzeMovesReaderToServer(t *testing.T) {
	t.Parallel()
	res, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distribution["reader@1"] != com.Server {
		t.Errorf("reader placed on %v", res.Distribution["reader@1"])
	}
	if res.Distribution["gui@1"] != com.Client {
		t.Errorf("gui placed on %v", res.Distribution["gui@1"])
	}
	if res.Distribution["storage@1"] != com.Server {
		t.Errorf("storage placed on %v", res.Distribution["storage@1"])
	}
	// The free-floating worker stays on the client.
	if res.Distribution["worker@1"] != com.Client {
		t.Errorf("worker placed on %v", res.Distribution["worker@1"])
	}
	// Coign must beat the default (reader on client pulls 500 big blocks).
	if res.PredictedComm >= res.DefaultComm {
		t.Errorf("predicted %v not better than default %v", res.PredictedComm, res.DefaultComm)
	}
	if s := res.Savings(); s < 0.5 {
		t.Errorf("savings = %v", s)
	}
	if res.ServerClassifications != 2 || res.ServerInstances != 2 {
		t.Errorf("server: %d classifications, %d instances",
			res.ServerClassifications, res.ServerInstances)
	}
	if res.Constrained != 2 {
		t.Errorf("constrained = %d", res.Constrained)
	}
	comps := res.ServerComponents(benchProfile())
	if len(comps) != 2 || comps[0].Classification != "reader@1" {
		t.Errorf("server components = %v", comps)
	}
}

func TestAnalyzeNonRemotableForcesColocation(t *testing.T) {
	t.Parallel()
	p := benchProfile()
	// A non-remotable edge between reader and gui drags the reader back to
	// the client despite the heavy storage traffic... unless storage
	// traffic dominates; use a heavier opaque edge weight scenario: mark
	// the reader->gui edge non-remotable.
	p.Edge("reader@1", "gui@1").NonRemotable = true
	res, err := Analyze(context.Background(), p, np(), benchApp(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NonRemotableEdges != 1 {
		t.Errorf("non-remotable edges = %d", res.NonRemotableEdges)
	}
	if res.Distribution["reader@1"] != com.Client {
		t.Error("co-location constraint not honored")
	}
	// Never worse than default even when constrained.
	if res.PredictedComm > res.DefaultComm {
		t.Errorf("predicted %v worse than default %v", res.PredictedComm, res.DefaultComm)
	}
}

// Regression: when the developer's default distribution split a
// co-located pair, EvaluateAssignment returned +Inf and the duration
// conversion overflowed DefaultComm into garbage (minimum int64), which
// zeroed Savings. The default is now priced with true edge weights and the
// infeasibility is surfaced as DefaultViolations.
func TestAnalyzeDefaultCommSurvivesSplitCoLocation(t *testing.T) {
	t.Parallel()
	// Worker lives on the server by default but carries no pinning
	// evidence (not infrastructure, no APIs), so the instance stays
	// satisfiable: the cut is free to pull it to the client.
	classes := com.NewClassRegistry()
	classes.Register(&com.Class{ID: "C_GUI", Name: "GUI",
		APIs: []string{com.APIUserWindow}, New: nopObject})
	classes.Register(&com.Class{ID: "C_Worker", Name: "Worker",
		Home: com.Server, New: nopObject})
	app := &com.App{Name: "bench", Classes: classes}

	p := profile.New("bench", "ifcb")
	p.Scenarios = []string{"s"}
	p.AddInstance(profile.InstanceRecord{ID: 1, Class: "GUI", Classification: "gui@1"})
	p.AddInstance(profile.InstanceRecord{ID: 2, Class: "Worker", Classification: "worker@1"})
	for i := 0; i < 20; i++ {
		p.Edge(profile.MainProgram, "gui@1").Record(64, 16, false)
	}
	for i := 0; i < 50; i++ {
		p.Edge("gui@1", "worker@1").Record(256, 1024, false)
	}
	// The opaque interface welds the pair; the default (gui on client,
	// worker at its server home) splits it.
	p.Edge("gui@1", "worker@1").NonRemotable = true

	res, err := Analyze(context.Background(), p, np(), app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DefaultComm <= 0 {
		t.Errorf("DefaultComm = %v, want a positive finite duration", res.DefaultComm)
	}
	if res.DefaultViolations != 1 {
		t.Errorf("DefaultViolations = %d, want 1", res.DefaultViolations)
	}
	// The chosen distribution honors the weld.
	if res.Distribution["worker@1"] != res.Distribution["gui@1"] {
		t.Error("cut split the co-located pair")
	}
	// With the pair welded on the client, all profiled traffic stays
	// local and the default's crossing weight becomes pure savings.
	if res.PredictedComm >= res.DefaultComm {
		t.Errorf("predicted %v not better than default %v", res.PredictedComm, res.DefaultComm)
	}
	if s := res.Savings(); s <= 0 {
		t.Errorf("Savings = %v, want > 0", s)
	}
	// A feasible default reports zero violations.
	res2, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DefaultViolations != 0 {
		t.Errorf("feasible default reports %d violations", res2.DefaultViolations)
	}
}

func TestAnalyzeExtraConstraints(t *testing.T) {
	t.Parallel()
	res, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), Options{
		ExtraPins: map[string]com.Machine{"reader@1": com.Client},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distribution["reader@1"] != com.Client {
		t.Error("absolute constraint ignored")
	}
}

func TestAnalyzeExactPricing(t *testing.T) {
	t.Parallel()
	a, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), Options{ExactPricing: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same placement decision; slightly different predicted times.
	if a.Distribution["reader@1"] != b.Distribution["reader@1"] {
		t.Error("pricing mode changed the distribution")
	}
	ratio := float64(a.PredictedComm+1) / float64(b.PredictedComm+1)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("bucketed %v vs exact %v", a.PredictedComm, b.PredictedComm)
	}
}

func TestAnalyzeArgumentErrors(t *testing.T) {
	t.Parallel()
	if _, err := Analyze(context.Background(), nil, np(), benchApp(), Options{}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := Analyze(context.Background(), benchProfile(), nil, benchApp(), Options{}); err == nil {
		t.Error("nil network profile accepted")
	}
	if _, err := Analyze(context.Background(), benchProfile(), np(), nil, Options{}); err == nil {
		t.Error("nil app accepted")
	}
}

func TestAnalyzeUnsatisfiableConstraints(t *testing.T) {
	t.Parallel()
	p := benchProfile()
	p.Edge("gui@1", "storage@1").Record(10, 10, true) // colocate GUI & storage
	if _, err := Analyze(context.Background(), p, np(), benchApp(), Options{}); err == nil {
		t.Error("contradictory constraints not reported")
	}
}

// evalProfiles builds profiled+eval profile pairs where two View instances
// behave identically and a Writer behaves differently.
func evalProfiles(classifier string) (*profile.Profile, *profile.Profile) {
	mk := func(scen string, extraView bool) *profile.Profile {
		p := profile.New("app", classifier)
		p.Scenarios = []string{scen}
		p.AddInstance(profile.InstanceRecord{ID: 1, Class: "View", Classification: "view@1"})
		p.AddInstance(profile.InstanceRecord{ID: 2, Class: "Writer", Classification: "writer@1"})
		p.InstEdge(0, 1).Record(100, 100, false)
		p.Edge(profile.MainProgram, "view@1").Record(100, 100, false)
		p.InstEdge(2, 1).Record(50, 10, false)
		p.Edge("writer@1", "view@1").Record(50, 10, false)
		if extraView {
			p.AddInstance(profile.InstanceRecord{ID: 3, Class: "View", Classification: "view@new"})
			p.InstEdge(0, 3).Record(100, 100, false)
			p.Edge(profile.MainProgram, "view@new").Record(100, 100, false)
		}
		return p
	}
	return mk("profiled", false), mk("bigone", true)
}

func TestEvaluateClassifier(t *testing.T) {
	t.Parallel()
	profiled, eval := evalProfiles("ifcb")
	res, err := EvaluateClassifier(profiled, eval, np())
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfiledClassifications != 2 {
		t.Errorf("profiled classifications = %d", res.ProfiledClassifications)
	}
	if res.NewClassifications != 1 {
		t.Errorf("new classifications = %d", res.NewClassifications)
	}
	if res.AvgInstancesPerClassification != 1 {
		t.Errorf("instances/classification = %v", res.AvgInstancesPerClassification)
	}
	// Instances 1 and 2 correlate perfectly with their profiles; instance
	// 3's classification is new (correlation 0): average 2/3.
	if res.AvgCorrelation < 0.6 || res.AvgCorrelation > 0.7 {
		t.Errorf("avg correlation = %v", res.AvgCorrelation)
	}
}

func TestEvaluateClassifierErrors(t *testing.T) {
	t.Parallel()
	profiled, eval := evalProfiles("ifcb")
	other := profile.New("app", "st")
	other.Instances = eval.Instances
	if _, err := EvaluateClassifier(profiled, other, np()); err == nil {
		t.Error("classifier mismatch accepted")
	}
	empty := profile.New("app", "ifcb")
	if _, err := EvaluateClassifier(profiled, empty, np()); err == nil {
		t.Error("missing instance detail accepted")
	}
}

func TestSavingsEdgeCases(t *testing.T) {
	t.Parallel()
	r := &Result{PredictedComm: time.Second, DefaultComm: 0}
	if r.Savings() != 0 {
		t.Error("zero default should give zero savings")
	}
	r = &Result{PredictedComm: 2 * time.Second, DefaultComm: time.Second}
	if r.Savings() != 0 {
		t.Error("negative savings should clamp to zero")
	}
	r = &Result{PredictedComm: time.Second, DefaultComm: 4 * time.Second}
	if s := r.Savings(); s != 0.75 {
		t.Errorf("savings = %v", s)
	}
}

func TestWriteDOT(t *testing.T) {
	t.Parallel()
	p := benchProfile()
	res, err := Analyze(context.Background(), p, np(), benchApp(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteDOT(&sb, p, "test distribution"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"graph coign {", "test distribution",
		"fillcolor=gray25", // server-side fill
		`"gui@1"`, `"reader@1"`,
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// A non-remotable edge draws as a heavy black line.
	p.Edge("reader@1", "gui@1").NonRemotable = true
	res2, err := Analyze(context.Background(), p, np(), benchApp(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := res2.WriteDOT(&sb, p, "t"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "penwidth=2.0") {
		t.Error("non-remotable edge not emphasized")
	}
}
