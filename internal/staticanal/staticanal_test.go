package staticanal_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/apps/benefits"
	"repro/internal/apps/octarine"
	"repro/internal/apps/photodraw"
	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/core"
	"repro/internal/idl"
	"repro/internal/scenario"
	"repro/internal/staticanal"
)

// TestScanImagePhotodraw: on a clean build every registered class has a
// code section and every code section a class.
func TestScanImagePhotodraw(t *testing.T) {
	t.Parallel()
	app := photodraw.New()
	rep, err := staticanal.Analyze(app, binimg.BuildImage(app))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Components == 0 || rep.Components != app.Classes.Len() {
		t.Fatalf("%d components, want the registry's %d", rep.Components, app.Classes.Len())
	}
	if rep.ComponentsInImage != rep.Components {
		t.Errorf("%d of %d components in the image, want all", rep.ComponentsInImage, rep.Components)
	}
	if len(rep.OrphanSections) != 0 || len(rep.MissingFromImage) != 0 {
		t.Errorf("orphans %v, missing %v; want none on a clean build",
			rep.OrphanSections, rep.MissingFromImage)
	}
}

// TestScanImageStateRecordsAreNotOrphans: the paper apps ship no state
// descriptors, so only a generated app shows whether the analyzer mistakes
// ".state$" record sections for code sections of unknown classes.
func TestScanImageStateRecordsAreNotOrphans(t *testing.T) {
	t.Parallel()
	app, err := scenario.NewApp("synth:read-replica:1")
	if err != nil {
		t.Fatal(err)
	}
	img := binimg.BuildImage(app)
	states, err := img.States()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 {
		t.Fatal("read-replica app ships no state records; the test checks nothing")
	}
	rep, err := staticanal.Analyze(app, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ComponentsInImage != rep.Components {
		t.Errorf("%d of %d components in the image, want all", rep.ComponentsInImage, rep.Components)
	}
	if len(rep.OrphanSections) != 0 || len(rep.MissingFromImage) != 0 {
		t.Errorf("orphans %v, missing %v; want none on a clean build",
			rep.OrphanSections, rep.MissingFromImage)
	}
}

func TestClassifyDeclaredLocalInterfaces(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		app *com.App
		iid string
	}{
		{photodraw.New(), "ISpriteCache"},
		{photodraw.New(), "IUIElement"},
		{octarine.New(), "IWidget"},
	} {
		reports := staticanal.ClassifyInterfaces(tc.app.Interfaces)
		r := reports[tc.iid]
		if r == nil {
			t.Fatalf("%s: no report for %s", tc.app.Name, tc.iid)
		}
		if r.Remotability != staticanal.NonRemotable {
			t.Errorf("%s: %s classified %s, want non-remotable", tc.app.Name, tc.iid, r.Remotability)
		}
	}
}

func TestClassifyMixedOpaqueIsConditional(t *testing.T) {
	t.Parallel()
	// benefits' IGraphView pairs a clean PlotRow with an opaque-DC Paint:
	// calls through it may or may not marshal, so the interface is
	// conditionally remotable and marked opaque for the verifier.
	app := benefits.New()
	reports := staticanal.ClassifyInterfaces(app.Interfaces)
	r := reports["IGraphView"]
	if r == nil {
		t.Fatal("no report for IGraphView")
	}
	if r.Remotability != staticanal.ConditionallyRemotable {
		t.Errorf("IGraphView classified %s, want conditional", r.Remotability)
	}
	if !r.Opaque {
		t.Error("IGraphView not marked opaque")
	}
}

func TestClassifyFullyOpaqueInterface(t *testing.T) {
	t.Parallel()
	reg := idl.NewRegistry()
	reg.Register(&idl.InterfaceDesc{
		IID: "IShm", Name: "IShm", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Map", Params: []idl.ParamDesc{{Name: "p", Dir: idl.In, Type: idl.TOpaque}}, Result: idl.TVoid},
			{Name: "Flush", Params: []idl.ParamDesc{{Name: "p", Dir: idl.In, Type: idl.TOpaque}}, Result: idl.TInt32},
		},
	})
	r := staticanal.ClassifyInterfaces(reg)["IShm"]
	if r.Remotability != staticanal.NonRemotable {
		t.Errorf("all-opaque interface classified %s, want non-remotable", r.Remotability)
	}
}

func TestClassifyNestedOpaqueInStruct(t *testing.T) {
	t.Parallel()
	reg := idl.NewRegistry()
	reg.Register(&idl.InterfaceDesc{
		IID: "INested", Name: "INested", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Send", Params: []idl.ParamDesc{{Name: "req", Dir: idl.In, Type: idl.Struct("Req",
				idl.Field("n", idl.TInt32),
				idl.Field("handles", &idl.TypeDesc{Kind: idl.KindArray, Elem: idl.TOpaque}),
			)}}, Result: idl.TVoid},
		},
	})
	r := staticanal.ClassifyInterfaces(reg)["INested"]
	if !r.Opaque {
		t.Error("opaque pointer nested in struct/array not detected")
	}
	if r.Remotability != staticanal.NonRemotable {
		t.Errorf("single-method all-opaque interface classified %s, want non-remotable", r.Remotability)
	}
}

func TestClassifyUnregisteredAndUntypedReferences(t *testing.T) {
	t.Parallel()
	reg := idl.NewRegistry()
	reg.Register(&idl.InterfaceDesc{
		IID: "IDangling", Name: "IDangling", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Bind", Params: []idl.ParamDesc{{Name: "x", Dir: idl.In, Type: idl.InterfaceType("INowhere")}}, Result: idl.TVoid},
		},
	})
	reg.Register(&idl.InterfaceDesc{
		IID: "IAny", Name: "IAny", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Accept", Params: []idl.ParamDesc{{Name: "x", Dir: idl.In, Type: idl.InterfaceType("")}}, Result: idl.TVoid},
		},
	})
	reports := staticanal.ClassifyInterfaces(reg)
	if r := reports["IDangling"]; r.Remotability != staticanal.ConditionallyRemotable {
		t.Errorf("unregistered IID reference classified %s, want conditional", r.Remotability)
	}
	if r := reports["IAny"]; r.Remotability != staticanal.ConditionallyRemotable {
		t.Errorf("untyped interface pointer classified %s, want conditional", r.Remotability)
	}
}

func TestClassifyCallbackCycle(t *testing.T) {
	t.Parallel()
	reg := idl.NewRegistry()
	reg.Register(&idl.InterfaceDesc{
		IID: "ISource", Name: "ISource", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Subscribe", Params: []idl.ParamDesc{{Name: "s", Dir: idl.In, Type: idl.InterfaceType("ISink")}}, Result: idl.TVoid},
		},
	})
	reg.Register(&idl.InterfaceDesc{
		IID: "ISink", Name: "ISink", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Resubscribe", Params: []idl.ParamDesc{{Name: "s", Dir: idl.In, Type: idl.InterfaceType("ISource")}}, Result: idl.TVoid},
		},
	})
	reports := staticanal.ClassifyInterfaces(reg)
	for _, iid := range []string{"ISource", "ISink"} {
		r := reports[iid]
		if r.Remotability != staticanal.ConditionallyRemotable {
			t.Errorf("%s in callback cycle classified %s, want conditional", iid, r.Remotability)
		}
		found := false
		for _, reason := range r.Reasons {
			if strings.Contains(reason, "callback cycle") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no callback-cycle reason in %v", iid, r.Reasons)
		}
	}
}

func TestDerivePins(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		app     *com.App
		class   string
		machine com.Machine
	}{
		{photodraw.New(), "StudioFrame", com.Client},
		{photodraw.New(), "ImageStore", com.Server},
		{benefits.New(), "BenefitsForm", com.Client},
		{benefits.New(), "Database", com.Server},
		{octarine.New(), "AppFrame", com.Client},
	} {
		rep, err := staticanal.Analyze(tc.app, nil)
		if err != nil {
			t.Fatal(err)
		}
		pin, ok := rep.Constraints.PinFor(tc.class)
		if !ok {
			t.Errorf("%s: no pin for %s", tc.app.Name, tc.class)
			continue
		}
		if pin.Machine != tc.machine {
			t.Errorf("%s: %s pinned to %s, want %s", tc.app.Name, tc.class, pin.Machine, tc.machine)
		}
		if pin.Reason == "" {
			t.Errorf("%s: pin for %s has no reason", tc.app.Name, tc.class)
		}
	}
}

func TestInferPin(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		class   *com.Class
		machine com.Machine
		pinned  bool
	}{
		{"GUI", &com.Class{Name: "GUI", APIs: []string{com.APIGdiPaint}}, com.Client, true},
		{"storage", &com.Class{Name: "Storage", APIs: []string{com.APIFileRead}}, com.Server, true},
		{"no location API", &com.Class{Name: "Reader", APIs: []string{"kernel32.HeapAlloc"}}, 0, false},
		{"nil class", nil, 0, false},
		// GUI wins over storage when both appear.
		{"GUI and storage", &com.Class{Name: "Both",
			APIs: []string{com.APIFileRead, com.APIGdiPaint}}, com.Client, true},
		// Infrastructure is pinned home regardless of APIs.
		{"infrastructure", &com.Class{Name: "Infra", Home: com.Server, Infrastructure: true,
			APIs: []string{com.APIGdiPaint}}, com.Server, true},
	} {
		m, reason, ok := staticanal.InferPin(tc.class)
		if ok != tc.pinned || m != tc.machine {
			t.Errorf("%s: InferPin = %v,%v, want %v,%v", tc.name, m, ok, tc.machine, tc.pinned)
		}
		if ok == (reason == "") {
			t.Errorf("%s: pinned %v with reason %q", tc.name, ok, reason)
		}
	}
}

func TestConstraintSetsNonEmptyForAllApps(t *testing.T) {
	t.Parallel()
	for _, name := range scenario.Apps() {
		app, err := scenario.NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := staticanal.Analyze(app, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cs := rep.Constraints; len(cs.Pins) == 0 && len(cs.Pairs) == 0 {
			t.Errorf("%s: empty constraint set", name)
		}
		var buf bytes.Buffer
		if err := rep.WriteText(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: empty text report", name)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDerivePairConstraints(t *testing.T) {
	t.Parallel()
	app := photodraw.New()
	rep, err := staticanal.Analyze(app, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := rep.Constraints
	// SpriteCache and SpriteIndex share the non-remotable ISpriteBuf.
	if reason, weld := cs.MustCoLocate("SpriteCache", "SpriteIndex"); !weld {
		t.Error("SpriteCache/SpriteIndex not pair-constrained")
	} else if reason == "" {
		t.Error("pair constraint has no reason")
	}
	// A class whose whole surface is non-remotable welds any caller.
	if _, weld := cs.MustCoLocate("Reader", "SpriteIndex"); !weld {
		t.Error("call into fully non-remotable SpriteIndex not welded")
	}
	// Two remotable classes stay free.
	if _, weld := cs.MustCoLocate("Reader", "Transform"); weld {
		t.Error("Reader/Transform wrongly welded")
	}
}

func TestVerifierOnSeedScenarios(t *testing.T) {
	t.Parallel()
	for _, name := range scenario.Apps() {
		app, err := scenario.NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		adps := core.New(app)
		if adps.Static == nil {
			t.Fatalf("%s: pipeline has no static report", name)
		}
		if err := adps.Instrument(); err != nil {
			t.Fatal(err)
		}
		p, err := adps.ProfileScenarios(scenario.TrainingForApp(name), false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := adps.Analyze(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The cut must satisfy every static constraint, and the observed
		// ICC must contain no statically unexplained non-remotable calls.
		if n := staticanal.ErrorCount(res.Findings); n != 0 {
			t.Errorf("%s: %d constraint violations: %v", name, n, res.Findings)
		}
		for _, f := range res.Findings {
			t.Errorf("%s: unexpected finding %s", name, f)
		}
		if res.Constrained == 0 {
			t.Errorf("%s: no classifications pinned", name)
		}
	}
}

// TestVerifierOctarineWithCoverageConstraints pins the verifier's
// behaviour on the largest suite application after the scenario-coverage
// gate installs its conservative constraints: the static model must
// explain every observed activation (no misses), the uncovered-edge welds
// must hold in the chosen cut, and the cross-join must stay silent — no
// warnings, no errors.
func TestVerifierOctarineWithCoverageConstraints(t *testing.T) {
	t.Parallel()
	adps := core.New(octarine.New())
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	prof, err := adps.ProfileScenarios(scenario.TrainingForApp("octarine"), false)
	if err != nil {
		t.Fatal(err)
	}
	cov := adps.Reach.Coverage(prof)
	cov.InstallConstraints(adps.AnalysisOptions.Constraints)
	if len(cov.Misses) != 0 {
		t.Fatalf("octarine static misses: %v", cov.Misses)
	}
	if len(cov.UncoveredEdges()) == 0 {
		t.Fatal("octarine training scenarios unexpectedly cover the whole static graph")
	}
	// One concrete uncovered edge the gate must weld: the toolbar holds
	// its buttons but never calls them on the training scenarios.
	if _, ok := adps.AnalysisOptions.Constraints.MustCoLocate("Toolbar", "ToolButton"); !ok {
		t.Error("Toolbar/ToolButton coverage weld missing")
	}

	res, err := adps.Analyze(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Errorf("verifier findings with coverage constraints: %v", res.Findings)
	}
	if res.CoverageCoLocations == 0 {
		t.Error("no coverage welds took effect in the graph")
	}
	machine := func(class string) map[com.Machine]bool {
		out := make(map[com.Machine]bool)
		for id, m := range res.Distribution {
			if ci := prof.Classification(id); ci != nil && ci.Class == class {
				out[m] = true
			}
		}
		return out
	}
	tb, btn := machine("Toolbar"), machine("ToolButton")
	if len(tb) != 1 || len(btn) != 1 {
		t.Fatalf("split placements: Toolbar=%v ToolButton=%v", tb, btn)
	}
	for m := range tb {
		if !btn[m] {
			t.Errorf("coverage weld violated: Toolbar=%v ToolButton=%v", tb, btn)
		}
	}
}

func TestCheckCutFlagsViolations(t *testing.T) {
	t.Parallel()
	app := photodraw.New()
	adps := core.New(app)
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	p, err := adps.ProfileScenarios(scenario.TrainingForApp("photodraw"), false)
	if err != nil {
		t.Fatal(err)
	}
	cs := adps.Static.Constraints

	// Everything on the server violates every client pin.
	allServer := make(map[string]com.Machine)
	for _, ci := range p.Classifications {
		allServer[ci.ID] = com.Server
	}
	findings := cs.CheckCut(p, allServer)
	if staticanal.ErrorCount(findings) == 0 {
		t.Fatal("all-server placement produced no violations")
	}
	kinds := map[string]bool{}
	for _, f := range findings {
		kinds[f.Kind] = true
	}
	if !kinds[staticanal.KindPinViolation] {
		t.Error("no pin violation reported for all-server placement")
	}
}
