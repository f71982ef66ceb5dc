package analysis

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/logger"
	"repro/internal/netsim"
	"repro/internal/profile"
	"repro/internal/staticanal"
)

func np() *netsim.Profile {
	return netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)
}

func nopObject() com.Object { return com.ObjectFunc(nil) }

// static returns options carrying the constraint set the static analyzer
// derives for app, the set a session hands the engine.
func static(t *testing.T, app *com.App) Options {
	t.Helper()
	rep, err := staticanal.Analyze(app, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Options{Constraints: rep.Constraints}
}

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
	return &com.App{Name: "bench", Classes: classes, Interfaces: idl.NewRegistry()}
}

// benchProfile: main->GUI chatter (small), Reader<->Storage heavy,
// Reader->GUI light. The optimal cut moves Reader to the server.
func benchProfile() *profile.Profile {
	p := profile.New("bench", "ifcb")
	p.Scenarios = []string{"s"}
	add := func(id, class string, n int64) {
		for i := int64(0); i < n; i++ {
			p.AddInstance(id, class, nil)
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
	res, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), static(t, benchApp()))
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
	res, err := Analyze(context.Background(), p, np(), benchApp(), static(t, benchApp()))
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

// TestAnalyzeInstallsStaticWelds: a weld from the static set holds where
// the profile saw no opaque call. Reader and GUI implement only a [local]
// interface, so the light Reader->GUI edge welds Reader to the
// client-pinned GUI despite Reader's heavy storage traffic.
func TestAnalyzeInstallsStaticWelds(t *testing.T) {
	t.Parallel()
	app := benchApp()
	app.Interfaces.Register(&idl.InterfaceDesc{IID: "IFrame", Name: "IFrame"})
	for _, name := range []string{"GUI", "Reader"} {
		c := app.Classes.LookupName(name)
		c.Interfaces = append(c.Interfaces, "IFrame")
	}
	res, err := Analyze(context.Background(), benchProfile(), np(), app, static(t, app))
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticCoLocations != 1 || res.NonRemotableEdges != 0 {
		t.Errorf("static welds %d, dynamic %d; want 1 and 0", res.StaticCoLocations, res.NonRemotableEdges)
	}
	if res.Distribution["reader@1"] != com.Client {
		t.Error("static weld not honored: reader left its GUI")
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
	app := &com.App{Name: "bench", Classes: classes, Interfaces: idl.NewRegistry()}

	p := profile.New("bench", "ifcb")
	p.Scenarios = []string{"s"}
	p.AddInstance("gui@1", "GUI", nil)
	p.AddInstance("worker@1", "Worker", nil)
	for i := 0; i < 20; i++ {
		p.Edge(profile.MainProgram, "gui@1").Record(64, 16, false)
	}
	for i := 0; i < 50; i++ {
		p.Edge("gui@1", "worker@1").Record(256, 1024, false)
	}
	// The opaque interface welds the pair; the default (gui on client,
	// worker at its server home) splits it.
	p.Edge("gui@1", "worker@1").NonRemotable = true

	res, err := Analyze(context.Background(), p, np(), app, static(t, app))
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
	res2, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), static(t, benchApp()))
	if err != nil {
		t.Fatal(err)
	}
	if res2.DefaultViolations != 0 {
		t.Errorf("feasible default reports %d violations", res2.DefaultViolations)
	}
}

func TestAnalyzeExtraConstraints(t *testing.T) {
	t.Parallel()
	opts := static(t, benchApp())
	opts.ExtraPins = map[string]com.Machine{"reader@1": com.Client}
	res, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distribution["reader@1"] != com.Client {
		t.Error("absolute constraint ignored")
	}
}

func TestAnalyzeExactPricing(t *testing.T) {
	t.Parallel()
	a, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), static(t, benchApp()))
	if err != nil {
		t.Fatal(err)
	}
	exact := static(t, benchApp())
	exact.ExactPricing = true
	b, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), exact)
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
	if _, err := Analyze(context.Background(), nil, np(), benchApp(), static(t, benchApp())); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := Analyze(context.Background(), benchProfile(), nil, benchApp(), static(t, benchApp())); err == nil {
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
	_, err := Analyze(context.Background(), p, np(), benchApp(), static(t, benchApp()))
	if err == nil || !strings.Contains(err.Error(), "pinned to different machines") {
		t.Errorf("err = %v, want the pins-versus-weld contradiction", err)
	}
}

// TestAnalyzeRefusesNoConstraintSet: without the static set the engine
// would cut with the dynamic welds alone, so it refuses to cut at all.
func TestAnalyzeRefusesNoConstraintSet(t *testing.T) {
	t.Parallel()
	_, err := Analyze(context.Background(), benchProfile(), np(), benchApp(), Options{})
	if err == nil || !strings.Contains(err.Error(), "no constraint set") {
		t.Errorf("err = %v, want a refusal to cut without a constraint set", err)
	}
}

// recordRun records one run of scen into tr under classifier: the main
// program calls a reader, which calls two views alike.
func recordRun(tr *logger.Trace, scen, classifier string) {
	tr.BeginRun("app", scen, classifier)
	tr.Instantiation(logger.InstRecord{ID: 1, Class: "Reader", Classification: "c:reader"})
	tr.Instantiation(logger.InstRecord{ID: 2, Class: "View", Classification: "c:view"})
	tr.Instantiation(logger.InstRecord{ID: 3, Class: "View", Classification: "c:view"})
	tr.Call(logger.CallRecord{SrcInst: 0, DstInst: 1, Method: "Read", InBytes: 64, OutBytes: 4096})
	tr.Call(logger.CallRecord{SrcInst: 1, DstInst: 2, Method: "Show", InBytes: 128, OutBytes: 16})
	tr.Call(logger.CallRecord{SrcInst: 1, DstInst: 3, Method: "Show", InBytes: 128, OutBytes: 16})
	tr.EndRun()
}

// TestInstanceVectors: every instance of every run stored in a trace gets
// a vector over its peers' classifications, each priced as its instance
// pair's edge summary prices it; instance ids restart every run.
func TestInstanceVectors(t *testing.T) {
	t.Parallel()
	tr := logger.NewTrace()
	recordRun(tr, "s1", "ifcb")
	recordRun(tr, "s2", "ifcb")
	vecs := instances(tr, np())
	if len(vecs) != 6 {
		t.Fatalf("got %d vectors, want 3 per run", len(vecs))
	}
	var main, view profile.EdgeSummary
	main.Record(64, 4096, false)
	view.Record(128, 16, false)
	for run := 0; run < 2; run++ {
		v := vecs[3*run : 3*run+3]
		// The reader talks to main and to both views.
		r := v[0].vec
		if r[profile.MainProgram] != float64(main.Time(np())) || r["c:view"] != 2*float64(view.Time(np())) {
			t.Fatalf("run %d: reader vector = %v", run, r)
		}
		// The two views behave alike: perfect correlation.
		if got := profile.Correlation(v[1].vec, v[2].vec); math.Abs(got-1) > 1e-12 {
			t.Errorf("run %d: twin views correlation = %v", run, got)
		}
		// The reader's vector differs from a view's.
		if got := profile.Correlation(v[0].vec, v[1].vec); got > 0.999 {
			t.Errorf("run %d: reader-view correlation = %v", run, got)
		}
	}
}

// TestClassificationVectors: a classification's profiled vector is the
// mean of its instances' vectors over every training run.
func TestClassificationVectors(t *testing.T) {
	t.Parallel()
	var training []*logger.Trace
	for _, scen := range []string{"s1", "s2"} {
		tr := logger.NewTrace()
		recordRun(tr, scen, "ifcb")
		training = append(training, tr)
	}
	cv, n := classificationVectors(training, np())
	if len(cv) != 2 || n != 6 {
		t.Fatalf("got %d classification vectors over %d instances", len(cv), n)
	}
	inst := instances(training[1], np())
	// The view classification's mean vector equals each (identical) member.
	if got := profile.Correlation(cv["c:view"], inst[2].vec); math.Abs(got-1) > 1e-12 {
		t.Errorf("mean vs member correlation = %v", got)
	}
	if got, want := cv["c:view"]["c:reader"], inst[2].vec["c:reader"]; got != want {
		t.Errorf("mean of the views' reader time = %v, want a member's %v", got, want)
	}
}

// evalTraces builds a profiling run and an evaluation run in which two
// View instances behave identically and a Writer behaves differently; the
// evaluation run adds a View of a classification never profiled.
func evalTraces(classifier string) ([]*logger.Trace, *logger.Trace) {
	mk := func(scen string, extraView bool) *logger.Trace {
		tr := logger.NewTrace()
		tr.BeginRun("app", scen, classifier)
		tr.Instantiation(logger.InstRecord{ID: 1, Class: "View", Classification: "view@1"})
		tr.Instantiation(logger.InstRecord{ID: 2, Class: "Writer", Classification: "writer@1"})
		tr.Call(logger.CallRecord{SrcInst: 0, DstInst: 1, Method: "Show", InBytes: 100, OutBytes: 100})
		tr.Call(logger.CallRecord{SrcInst: 2, DstInst: 1, Method: "Show", InBytes: 50, OutBytes: 10})
		if extraView {
			tr.Instantiation(logger.InstRecord{ID: 3, Class: "View", Classification: "view@new"})
			tr.Call(logger.CallRecord{SrcInst: 0, DstInst: 3, Method: "Show", InBytes: 100, OutBytes: 100})
		}
		tr.EndRun()
		return tr
	}
	return []*logger.Trace{mk("profiled", false)}, mk("bigone", true)
}

func TestEvaluateClassifier(t *testing.T) {
	t.Parallel()
	training, eval := evalTraces("ifcb")
	res, err := EvaluateClassifier(training, eval, np())
	if err != nil {
		t.Fatal(err)
	}
	if res.Classifier != "ifcb" {
		t.Errorf("classifier = %q", res.Classifier)
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

// TestEvaluateClassifierErrors: evaluation refuses runs under different
// classifiers, a trace that stored no events, and no profiling run.
func TestEvaluateClassifierErrors(t *testing.T) {
	t.Parallel()
	training, eval := evalTraces("ifcb")
	_, other := evalTraces("st")
	if _, err := EvaluateClassifier(training, other, np()); err == nil {
		t.Error("classifier mismatch accepted")
	}
	var unstored logger.Trace // folds a profile, stores no event
	recordRun(&unstored, "s", "ifcb")
	if unstored.Profile() == nil {
		t.Fatal("the zero Trace folded no profile")
	}
	if _, err := EvaluateClassifier(training, &unstored, np()); err == nil {
		t.Error("an evaluation trace without events accepted")
	}
	if _, err := EvaluateClassifier([]*logger.Trace{&unstored}, eval, np()); err == nil {
		t.Error("a training trace without events accepted")
	}
	if _, err := EvaluateClassifier(nil, eval, np()); err == nil {
		t.Error("no profiling run accepted")
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
	res, err := Analyze(context.Background(), p, np(), benchApp(), static(t, benchApp()))
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
	res2, err := Analyze(context.Background(), p, np(), benchApp(), static(t, benchApp()))
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
