package alias

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/profile"
	"repro/internal/reach"
	"repro/internal/staticanal"
)

// nullObject satisfies the class registry's constructor requirement; the
// alias analysis is static and never invokes it.
func nullObject() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) { return nil, nil })
}

// testApp builds a five-class application exercising every transfer
// direction and mutability verdict:
//
//	Doc     256B state with a writer; IDoc.Snapshot returns opaque
//	Editor  no state; calls Doc (receives payloads) and Viewer (sends)
//	Viewer  no state; IView.Show takes an opaque in-parameter
//	Frozen  128B writer-free state; IFrozen.Freeze returns opaque
//	Reader  no state; calls Frozen (receives immutable payloads)
func testApp() *com.App {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IDoc", Name: "IDoc", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Snapshot", Result: idl.TOpaque},
			{Name: "Edit", Params: []idl.ParamDesc{{Name: "v", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TInt32},
		},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IView", Name: "IView", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Show", Params: []idl.ParamDesc{{Name: "blob", Dir: idl.In, Type: idl.TOpaque}}, Result: idl.TInt32},
		},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IFrozen", Name: "IFrozen", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Freeze", Result: idl.TOpaque}},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IPlain", Name: "IPlain", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Ping", Result: idl.TInt32}},
	})

	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_Doc", Name: "Doc", Interfaces: []string{"IDoc"},
		State: &com.StateDesc{Bytes: 256, Reads: []string{"Snapshot"}, Writes: []string{"Edit"}},
		New:   nullObject,
	})
	classes.Register(&com.Class{
		ID: "CLSID_Editor", Name: "Editor", Interfaces: []string{"IPlain"},
		New: nullObject,
	})
	classes.Register(&com.Class{
		ID: "CLSID_Viewer", Name: "Viewer", Interfaces: []string{"IView"},
		New: nullObject,
	})
	classes.Register(&com.Class{
		ID: "CLSID_Frozen", Name: "Frozen", Interfaces: []string{"IFrozen"},
		State: &com.StateDesc{Bytes: 128, Reads: []string{"Freeze"}},
		New:   nullObject,
	})
	classes.Register(&com.Class{
		ID: "CLSID_Reader", Name: "Reader", Interfaces: []string{"IPlain"},
		New: nullObject,
	})
	return &com.App{
		Name:       "aliastest",
		Classes:    classes,
		Interfaces: ifaces,
		Main:       func(env *com.Env, scenario string, seed int64) error { return nil },
	}
}

// testGraph wires the transfer paths described on testApp.
func testGraph() *reach.Graph {
	return &reach.Graph{Edges: []reach.Edge{
		{Src: "Editor", Dst: "Doc", IID: "IDoc"},
		{Src: "Editor", Dst: "Viewer", IID: "IView"},
		{Src: "Reader", Dst: "Frozen", IID: "IFrozen"},
		{Src: profile.MainProgram, Dst: "Doc", IID: "IDoc"},
	}}
}

func mustScan(t *testing.T, app *com.App, rg *reach.Graph) *Result {
	t.Helper()
	r, err := Scan(binimg.BuildImage(app), app, rg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScanPointsToClosure(t *testing.T) {
	t.Parallel()
	r := mustScan(t, testApp(), testGraph())
	r.FillChains()

	// Doc's payloads flow to Editor (opaque result) and onward to Viewer
	// (opaque in-parameter), so all three pairs share mutable state, and
	// each carries its provenance chains once they are read.
	for _, want := range [][2]string{{"Doc", "Editor"}, {"Doc", "Viewer"}, {"Editor", "Viewer"}} {
		p := r.Shared(want[0], want[1])
		if p == nil || !p.Mutable {
			t.Fatalf("pair %v = %+v, want shared mutable state", want, p)
		}
		if len(p.ChainA) == 0 || len(p.ChainB) == 0 {
			t.Fatalf("pair %v carries no provenance chains: %+v", want, p)
		}
	}

	// Frozen's payloads reach Reader, but the writer-free descriptor
	// proves them immutable: shared, not mutable.
	p := r.Shared("Frozen", "Reader")
	if p == nil || p.Mutable {
		t.Fatalf("Frozen<->Reader = %+v, want immutable shared payloads", p)
	}

	// Location mutability verdicts.
	byKey := make(map[string]*Location)
	for i := range r.Locations {
		byKey[r.Locations[i].Key] = &r.Locations[i]
	}
	if l := byKey["state:Doc"]; l == nil || !l.Mutable {
		t.Fatalf("state:Doc = %+v, want mutable (Edit writes)", l)
	}
	if l := byKey["opq:Doc"]; l == nil || !l.Mutable {
		t.Fatalf("opq:Doc = %+v, want mutable (owner declares writers)", l)
	}
	if l := byKey["opq:Editor"]; l == nil || !l.Mutable {
		t.Fatalf("opq:Editor = %+v, want conservatively mutable (no descriptor)", l)
	}
	if l := byKey["opq:Frozen"]; l == nil || l.Mutable {
		t.Fatalf("opq:Frozen = %+v, want immutable (writer-free descriptor)", l)
	}

	// MutablePairs is the sorted projection of the mutable verdicts.
	mp := r.MutablePairs()
	if len(mp) != 3 {
		t.Fatalf("MutablePairs = %v, want the three Doc/Editor/Viewer pairs", mp)
	}
}

func TestPredictsTransferIsCalleeSided(t *testing.T) {
	t.Parallel()
	r := mustScan(t, testApp(), testGraph())

	preds := []struct {
		src, dst string
		want     bool
	}{
		{"Editor", "Doc", true},            // opaque result through IDoc
		{"Editor", "Viewer", true},         // opaque in-parameter through IView
		{"Reader", "Frozen", true},         // immutable payloads still unmarshalable
		{"Doc", "Editor", false},           // reversed: no such call edge
		{"Reader", "Doc", false},           // no call edge at all
		{profile.MainProgram, "Doc", true}, // main edges predict, never weld
		{"Editor", profile.MainProgram, false},
	}
	for _, c := range preds {
		if got := r.PredictsTransfer(c.src, c.dst); got != c.want {
			t.Errorf("PredictsTransfer(%s, %s) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}

	if reason, ok := r.SharedMutable("Doc", "Editor"); !ok || !strings.Contains(reason, "mutable") {
		t.Fatalf("SharedMutable(Doc, Editor) = %q, %v", reason, ok)
	}
	if _, ok := r.SharedMutable("Frozen", "Reader"); ok {
		t.Fatal("SharedMutable claims Frozen and Reader share mutable state")
	}
}

// verifyProfile builds a classified profile with one instance per class.
func verifyProfile() *profile.Profile {
	p := profile.New("aliastest", "")
	for _, class := range []string{"Doc", "Editor", "Viewer", "Frozen", "Reader"} {
		p.AddInstance(class+"#0", class, nil)
	}
	return p
}

func TestVerifyZeroMiss(t *testing.T) {
	t.Parallel()
	r := mustScan(t, testApp(), testGraph())

	p := verifyProfile()
	p.Edge("Editor#0", "Doc#0").Record(64, 64, true)
	p.Edge("Reader#0", "Frozen#0").Record(64, 64, true)
	p.Edge(profile.MainProgram, "Doc#0").Record(64, 64, true)
	p.Edge("Editor#0", "Viewer#0").Record(64, 64, false) // remotable call: never checked
	if fs := r.Verify(p); len(fs) != 0 {
		t.Fatalf("predicted transfers produced findings: %v", fs)
	}

	// A non-remotable call with no predicted opaque transfer is a miss.
	p.Edge("Reader#0", "Doc#0").Record(64, 64, true)
	fs := r.Verify(p)
	if len(fs) != 1 || fs[0].Kind != KindAliasMiss || fs[0].Severity != staticanal.SeverityError {
		t.Fatalf("findings = %v, want one %s error", fs, KindAliasMiss)
	}
	if !strings.Contains(fs[0].Detail, "Reader") || !strings.Contains(fs[0].Detail, "Doc") {
		t.Fatalf("finding does not name the pair: %s", fs[0].Detail)
	}

	// Unclassified endpoints warn instead of erroring, and calls into the
	// main program are never checked.
	p = verifyProfile()
	p.Edge("Ghost#9", "Doc#0").Record(64, 64, true)
	p.Edge("Editor#0", profile.MainProgram).Record(64, 64, true)
	fs = r.Verify(p)
	if len(fs) != 1 || fs[0].Kind != staticanal.KindUnknownClass || fs[0].Severity != staticanal.SeverityWarning {
		t.Fatalf("findings = %v, want one unknown-class warning", fs)
	}

	// Edges out of a dynamic-activation factory are edge-transparent in
	// the reach analysis and by design never misses.
	rg := testGraph()
	rg.DynamicCreators = []string{"Reader"}
	rd := mustScan(t, testApp(), rg)
	p = verifyProfile()
	p.Edge("Reader#0", "Doc#0").Record(64, 64, true)
	if fs := rd.Verify(p); len(fs) != 0 {
		t.Fatalf("dynamic-creator edge reported: %v", fs)
	}
}

func TestScanRejectsMalformedImages(t *testing.T) {
	t.Parallel()
	app := testApp()
	corrupt := []struct {
		name string
		data []byte
	}{
		{"empty payload", nil},
		{"bad header", []byte("coign-state v9\nbytes 1\n")},
		{"bad size", []byte("coign-state v1\nbytes -4\n")},
		{"unknown directive", []byte("coign-state v1\nbytes 1\nzap Get\n")},
	}
	for _, c := range corrupt {
		img := binimg.BuildImage(app)
		img.Sections = append(img.Sections, binimg.Section{Name: binimg.StatePrefix + "CLSID_X", Data: c.data})
		if _, err := Scan(img, app, testGraph()); err == nil {
			t.Errorf("%s: Scan accepted a corrupt state section", c.name)
		}
	}

	// Stale records for unregistered classes are reported, not rejected.
	img := binimg.BuildImage(app)
	img.Sections = append(img.Sections, binimg.Section{
		Name: binimg.StatePrefix + "CLSID_Stale",
		Data: binimg.EncodeState(&com.StateDesc{Bytes: 8}),
	})
	r, err := Scan(img, app, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.UnknownClasses) != 1 || r.UnknownClasses[0] != "CLSID_Stale" {
		t.Fatalf("UnknownClasses = %v, want [CLSID_Stale]", r.UnknownClasses)
	}
}

func TestWriteJSONByteStable(t *testing.T) {
	t.Parallel()
	app, rg := testApp(), testGraph()
	var first bytes.Buffer
	if err := mustScan(t, app, rg).WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var again bytes.Buffer
		if err := mustScan(t, testApp(), testGraph()).WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("encoding %d differs from the first:\n%s\nvs\n%s", i, first.String(), again.String())
		}
	}
	if !bytes.Contains(first.Bytes(), []byte("sharedState")) {
		t.Fatal("canonical encoding misses the sharedState report")
	}
}

// FuzzAliasScan feeds arbitrary bytes through a state section: Scan must
// either parse or error, never panic, and accepted stale records must
// surface in UnknownClasses.
func FuzzAliasScan(f *testing.F) {
	f.Add([]byte("coign-state v1\nbytes 64\nread Get\nwrite Put\n"))
	f.Add([]byte("coign-state v1\nbytes 0\n"))
	f.Add([]byte("coign-state v1\nbytes 9999999999999999999\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		app := testApp()
		img := binimg.BuildImage(app)
		img.Sections = append(img.Sections, binimg.Section{Name: binimg.StatePrefix + "CLSID_Fuzz", Data: data})
		r, err := Scan(img, app, testGraph())
		if err != nil {
			return
		}
		if len(r.UnknownClasses) != 1 {
			t.Fatalf("accepted record for unregistered class not reported: %v", r.UnknownClasses)
		}
	})
}
