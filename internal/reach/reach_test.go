package reach_test

import (
	"strings"
	"testing"

	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/profile"
	"repro/internal/reach"
)

// flowApp builds a minimal application exercising both interface-flow
// rules: IMaker.Get returns an IWidget (return flow hands the caller the
// maker's widget), and ISink.Register accepts an IWidget (callback flow
// hands the sink the caller's widget).
func flowApp() *com.App {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IMaker", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Get", Result: idl.InterfaceType("IWidget")},
		},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IWidget", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Poke", Result: idl.TInt32}},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "ISink", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Register", Params: []idl.ParamDesc{
				{Name: "w", Dir: idl.In, Type: idl.InterfaceType("IWidget")},
			}, Result: idl.TInt32},
		},
	})

	classes := com.NewClassRegistry()
	reg := func(name string, iids []string, targets ...com.CLSID) {
		classes.Register(&com.Class{
			ID: com.CLSID("CLSID_" + name), Name: name, Interfaces: iids,
			Activations: targets,
			New:         func() com.Object { return com.ObjectFunc(nil) },
		})
	}
	reg("Maker", []string{"IMaker"}, "CLSID_Widget")
	reg("Widget", []string{"IWidget"})
	reg("Sink", []string{"ISink"})
	reg("Orphan", []string{"IWidget"}) // registered but never activated

	return &com.App{
		Name: "flow", Classes: classes, Interfaces: ifaces,
		MainActivations: []com.CLSID{"CLSID_Maker", "CLSID_Sink"},
	}
}

func scan(t *testing.T, app *com.App) *reach.Graph {
	t.Helper()
	g, err := reach.Scan(binimg.BuildImage(app), app)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestScanSitesAndReachability(t *testing.T) {
	t.Parallel()
	g := scan(t, flowApp())

	wantSites := [][2]string{
		{profile.MainProgram, "Maker"},
		{profile.MainProgram, "Sink"},
		{"Maker", "Widget"},
	}
	if len(g.Sites) != len(wantSites) {
		t.Fatalf("sites = %v, want %d", g.Sites, len(wantSites))
	}
	for _, w := range wantSites {
		if !g.HasSite(w[0], w[1]) {
			t.Errorf("missing site %s -> %s", w[0], w[1])
		}
	}
	for _, s := range g.Sites {
		if !strings.Contains(s.Provenance, binimg.RelocPrefix) {
			t.Errorf("site %s -> %s lacks relocation provenance: %q", s.Creator, s.Target, s.Provenance)
		}
	}
	if want := []string{"Maker", "Sink", "Widget"}; len(g.Reachable) != 3 ||
		g.Reachable[0] != want[0] || g.Reachable[1] != want[1] || g.Reachable[2] != want[2] {
		t.Errorf("reachable = %v, want %v", g.Reachable, want)
	}
	if len(g.Unreachable) != 1 || g.Unreachable[0] != "Orphan" {
		t.Errorf("unreachable = %v, want [Orphan]", g.Unreachable)
	}
	if g.IsReachable("Orphan") || !g.IsReachable("Widget") {
		t.Error("IsReachable disagrees with Reachable list")
	}
}

func TestInterfaceFlowFixedPoint(t *testing.T) {
	t.Parallel()
	g := scan(t, flowApp())

	// Return flow: the main program holds Maker, IMaker.Get returns an
	// IWidget, and Maker holds a Widget — so main can hold the Widget.
	if !g.HasEdge(profile.MainProgram, "Widget") {
		t.Fatalf("no main -> Widget edge from return flow; edges = %v", g.Edges)
	}
	// Callback flow: the main program holds Sink, ISink.Register accepts
	// an IWidget, so anything main holds that travels as IWidget — the
	// Widget it got from Maker — flows into Sink.
	if !g.HasEdge("Sink", "Widget") {
		t.Fatalf("no Sink -> Widget edge from callback flow; edges = %v", g.Edges)
	}
	var gotReturn, gotCallback bool
	for _, e := range g.Edges {
		switch {
		case e.Src == profile.MainProgram && e.Dst == "Widget":
			gotReturn = e.IID == "IWidget" && strings.Contains(e.Provenance, "returned by IMaker.Get")
		case e.Src == "Sink" && e.Dst == "Widget":
			gotCallback = e.IID == "IWidget" && strings.Contains(e.Provenance, "received via ISink.Register")
		}
	}
	if !gotReturn || !gotCallback {
		t.Errorf("flow provenance wrong (return %v, callback %v): %v", gotReturn, gotCallback, g.Edges)
	}
	// The Widget holds nothing and the Orphan is unreachable: neither may
	// be an edge source.
	for _, e := range g.Edges {
		if e.Src == "Widget" || e.Src == "Orphan" || e.Dst == "Orphan" {
			t.Errorf("impossible edge %v", e)
		}
	}
}

// dynApp models the mention discipline around a generic factory: the
// factory's activation record is dynamic, and the requesting class lists
// the factory-built CLSID in its own record.
func dynApp() *com.App {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IFactory", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Make", Result: idl.InterfaceType("IGadget")},
		},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IGadget", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Spin", Result: idl.TInt32}},
	})

	classes := com.NewClassRegistry()
	nop := func() com.Object { return com.ObjectFunc(nil) }
	classes.Register(&com.Class{
		ID: "CLSID_Factory", Name: "Factory", Interfaces: []string{"IFactory"},
		DynamicActivation: true,
		Activations:       []com.CLSID{"CLSID_Gadget"},
		New:               nop,
	})
	classes.Register(&com.Class{
		ID: "CLSID_Requester", Name: "Requester", Interfaces: []string{"IGadget"},
		Activations: []com.CLSID{"CLSID_Gadget"},
		New:         nop,
	})
	classes.Register(&com.Class{
		ID: "CLSID_Gadget", Name: "Gadget", Interfaces: []string{"IGadget"}, New: nop,
	})

	return &com.App{
		Name: "dyn", Classes: classes, Interfaces: ifaces,
		MainActivations: []com.CLSID{"CLSID_Factory", "CLSID_Requester"},
	}
}

func TestDynamicFactoryEdgeTransparency(t *testing.T) {
	t.Parallel()
	g := scan(t, dynApp())

	if !g.IsDynamicCreator("Factory") || g.IsDynamicCreator("Requester") {
		t.Fatalf("dynamic creators = %v, want [Factory]", g.DynamicCreators)
	}
	// A dynamic factory's partners are data, not code: no predicted
	// out-edges, and no return flow out of it either.
	for _, e := range g.Edges {
		if e.Src == "Factory" {
			t.Errorf("dynamic factory has out-edge %v", e)
		}
		if e.Src == profile.MainProgram && e.Dst == "Gadget" {
			t.Errorf("return flow leaked through dynamic factory: %v", e)
		}
	}
	// Mention discipline supplies the flow instead.
	if !g.HasSite("Requester", "Gadget") || !g.HasEdge("Requester", "Gadget") {
		t.Error("requester's own mention did not seed its site and edge")
	}
}

func TestEffectiveCreator(t *testing.T) {
	t.Parallel()
	g := scan(t, dynApp())
	cases := []struct {
		path []string
		want string
	}{
		{nil, profile.MainProgram},                      // direct main activation
		{[]string{"Requester"}, "Requester"},            // plain component creator
		{[]string{"Factory", "Requester"}, "Requester"}, // factory skipped
		{[]string{"Factory"}, profile.MainProgram},      // fully dynamic path
		{[]string{"Factory", "Factory"}, profile.MainProgram},
	}
	for _, c := range cases {
		if got := g.EffectiveCreator(c.path); got != c.want {
			t.Errorf("EffectiveCreator(%v) = %q, want %q", c.path, got, c.want)
		}
	}
}

func TestScanRejectsMalformedImages(t *testing.T) {
	t.Parallel()
	app := flowApp()

	if _, err := reach.Scan(nil, app); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := reach.Scan(binimg.BuildImage(app), nil); err == nil {
		t.Error("nil app accepted")
	}

	cases := []struct {
		name    string
		section binimg.Section
	}{
		{"empty owner", binimg.Section{Name: binimg.RelocPrefix, Data: binimg.EncodeReloc(false, nil)}},
		{"missing header", binimg.Section{Name: binimg.RelocPrefix + "CLSID_Maker", Data: []byte("activate CLSID_Widget\n")}},
		{"unknown directive", binimg.Section{Name: binimg.RelocPrefix + "CLSID_Maker", Data: []byte("coign-reloc v1\ndeactivate X\n")}},
		{"empty target", binimg.Section{Name: binimg.RelocPrefix + "CLSID_Maker", Data: []byte("coign-reloc v1\nactivate \n")}},
	}
	for _, c := range cases {
		img := binimg.BuildImage(app)
		img.Sections = append(img.Sections, c.section)
		if _, err := reach.Scan(img, app); err == nil {
			t.Errorf("%s: corrupted image accepted", c.name)
		}
	}
}

func TestStaleMetadataReportsUnknownTargets(t *testing.T) {
	t.Parallel()
	app := flowApp()
	app.MainActivations = append(app.MainActivations, "CLSID_Gone")
	g := scan(t, app)
	if len(g.UnknownTargets) != 1 || g.UnknownTargets[0] != "CLSID_Gone" {
		t.Fatalf("unknown targets = %v, want [CLSID_Gone]", g.UnknownTargets)
	}
}

// fakeProfile assembles a profile by hand: classifications with
// activation paths, and class-level communication edges.
func fakeProfile(app string, classes map[string][]string, edges [][2]string) *profile.Profile {
	p := profile.New(app, "ifcb")
	for id, pathAndClass := range classes {
		p.AddInstance(id, pathAndClass[0], pathAndClass[1:])
	}
	for _, e := range edges {
		p.Edge(e[0], e[1]).Calls++
	}
	p.Sort()
	return p
}

func TestCoverageJoin(t *testing.T) {
	t.Parallel()
	g := scan(t, flowApp())

	// Exercise the Maker site and the main->Maker call edge only; leave
	// Sink, Widget, and every flow edge unprofiled.
	p := fakeProfile("flow",
		map[string][]string{"m1": {"Maker"}},
		[][2]string{{profile.MainProgram, "m1"}},
	)
	cov := g.Coverage(p)
	if len(cov.Misses) != 0 {
		t.Fatalf("unexpected misses: %v", cov.Misses)
	}
	if sc, st := cov.SitesCovered(); sc != 1 || st != 3 {
		t.Errorf("sites covered = %d/%d, want 1/3", sc, st)
	}
	uncovered := cov.UncoveredSites()
	if len(uncovered) != 2 {
		t.Errorf("uncovered sites = %v, want 2", uncovered)
	}
	var sawSinkWidget bool
	for _, e := range cov.UncoveredEdges() {
		if e.Src == "Sink" && e.Dst == "Widget" {
			sawSinkWidget = true
		}
		if e.Src == profile.MainProgram && e.Dst == "Maker" {
			t.Error("exercised edge reported uncovered")
		}
	}
	if !sawSinkWidget {
		t.Errorf("Sink -> Widget not reported uncovered: %v", cov.UncoveredEdges())
	}
}

func TestCoverageMissesAndDynamicExemption(t *testing.T) {
	t.Parallel()
	g := scan(t, dynApp())

	p := fakeProfile("dyn",
		map[string][]string{
			"f1": {"Factory"},
			"r1": {"Requester"},
			// An observed Gadget activated through the factory on behalf of
			// the Requester: the path join must attribute it to Requester.
			"g1": {"Gadget", "Factory", "Requester"},
			// A class the static metadata knows nothing about.
			"x1": {"Orphaned"},
		},
		[][2]string{
			{"r1", "g1"}, // predicted via mention discipline
			{"f1", "g1"}, // dynamic factory driving its product: exempt
			{"r1", "x1"}, // unpredicted: a real miss
		},
	)
	cov := g.Coverage(p)

	for _, s := range cov.Sites {
		if s.Creator == "Requester" && s.Target == "Gadget" && !s.Covered {
			t.Error("factory-mediated activation not joined to Requester's site")
		}
	}
	var missKinds []string
	for _, m := range cov.Misses {
		missKinds = append(missKinds, m.Kind+":"+m.Src+"->"+m.Dst)
		if m.Src == "Factory" {
			t.Errorf("dynamic-source observation reported as miss: %v", m)
		}
	}
	// Exactly the Orphaned activation and the edge to it are misses.
	if len(cov.Misses) != 2 {
		t.Fatalf("misses = %v, want site and edge to Orphaned", missKinds)
	}
	for _, m := range cov.Misses {
		if m.Dst != "Orphaned" {
			t.Errorf("unexpected miss %v", m)
		}
	}
}

func TestCoveragePercentVacuouslyFull(t *testing.T) {
	t.Parallel()
	cov := &reach.Coverage{}
	if got := cov.Percent(); got != 100 {
		t.Errorf("empty coverage percent = %v, want 100", got)
	}
}

// TestFirstWinsProvenanceSnapshot pins which derivation names an edge
// when two reach it in different passes. A holds B; B returns its C, and
// C returns its D; E hands B a D by callback later in the first pass. A
// takes C from B in pass 1 but visits C only from pass 2, where B's
// return — earlier in A's sorted holds — derives A's D first. A closure
// that visited C in the pass A acquired it would name IC.GetD.
func TestFirstWinsProvenanceSnapshot(t *testing.T) {
	t.Parallel()
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{IID: "IB", Remotable: true, Methods: []idl.MethodDesc{
		{Name: "GetC", Result: idl.InterfaceType("IC")},
		{Name: "GetD", Result: idl.InterfaceType("ID")},
		{Name: "Take", Params: []idl.ParamDesc{{Name: "d", Dir: idl.In, Type: idl.InterfaceType("ID")}}, Result: idl.TVoid},
	}})
	ifaces.Register(&idl.InterfaceDesc{IID: "IC", Remotable: true, Methods: []idl.MethodDesc{
		{Name: "GetD", Result: idl.InterfaceType("ID")},
	}})
	ifaces.Register(&idl.InterfaceDesc{IID: "ID", Remotable: true, Methods: []idl.MethodDesc{
		{Name: "Poke", Result: idl.TInt32},
	}})
	classes := com.NewClassRegistry()
	reg := func(name, iid string, targets ...com.CLSID) {
		classes.Register(&com.Class{
			ID: com.CLSID("CLSID_" + name), Name: name, Interfaces: []string{iid},
			Activations: targets,
			New:         func() com.Object { return com.ObjectFunc(nil) },
		})
	}
	reg("A", "IA", "CLSID_B")
	reg("B", "IB", "CLSID_C")
	reg("C", "IC", "CLSID_D")
	reg("D", "ID")
	reg("E", "IE", "CLSID_B", "CLSID_D")
	g := scan(t, &com.App{
		Name: "firstwins", Classes: classes, Interfaces: ifaces,
		MainActivations: []com.CLSID{"CLSID_A", "CLSID_E"},
	})
	for _, e := range g.Edges {
		if e.Src == "A" && e.Dst == "D" {
			if e.IID != "ID" || e.Provenance != "returned by IB.GetD" {
				t.Fatalf("A -> D = %+v, want IID ID returned by IB.GetD", e)
			}
			return
		}
	}
	t.Fatalf("no edge A -> D in %+v", g.Edges)
}
