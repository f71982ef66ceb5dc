package purity

import (
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
// purity analysis is static and never invokes it.
func nullObject() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) { return nil, nil })
}

// testApp builds a four-class application exercising every local
// classification branch:
//
//	Pure    stateless descriptor, one cacheable method      -> stateless
//	Cache   64B state, Peek declared a reader, never written -> read-mostly
//	Store   1KB state, Get reads / Put writes                -> profile-dependent
//	NoDesc  no state descriptor at all                       -> stateful
func testApp() *com.App {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IPure", Name: "IPure", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Hash", Cacheable: true, Result: idl.TInt32}},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "ICache", Name: "ICache", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Peek", Result: idl.TInt32}},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IStore", Name: "IStore", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Get", Result: idl.TInt32},
			{Name: "Put", Params: []idl.ParamDesc{{Name: "v", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TInt32},
		},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IMisc", Name: "IMisc", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Do", Result: idl.TInt32}},
	})

	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_Pure", Name: "Pure", Interfaces: []string{"IPure"},
		State: &com.StateDesc{Bytes: 0},
		New:   nullObject,
	})
	classes.Register(&com.Class{
		ID: "CLSID_Cache", Name: "Cache", Interfaces: []string{"ICache"},
		State: &com.StateDesc{Bytes: 64, Reads: []string{"Peek"}},
		New:   nullObject,
	})
	classes.Register(&com.Class{
		ID: "CLSID_Store", Name: "Store", Interfaces: []string{"IStore"},
		State: &com.StateDesc{Bytes: 1024, Reads: []string{"Get"}, Writes: []string{"Put"}},
		New:   nullObject,
	})
	classes.Register(&com.Class{
		ID: "CLSID_NoDesc", Name: "NoDesc", Interfaces: []string{"IMisc"},
		New: nullObject,
	})
	return &com.App{
		Name:       "puritytest",
		Classes:    classes,
		Interfaces: ifaces,
		Main:       func(env *com.Env, scenario string, seed int64) error { return nil },
	}
}

func mustScan(t *testing.T, app *com.App, rg *reach.Graph) *Report {
	t.Helper()
	r, err := Scan(binimg.BuildImage(app), app, rg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScanLocalClassification(t *testing.T) {
	t.Parallel()
	r := mustScan(t, testApp(), &reach.Graph{})

	pure := r.Class("Pure")
	if pure == nil || !pure.LocallyPure || pure.MethodPurity("Hash") != ReadOnly {
		t.Fatalf("Pure = %+v, want locally pure with read-only Hash", pure)
	}
	cache := r.Class("Cache")
	if cache == nil || !cache.LocallyPure || cache.StateBytes != 64 {
		t.Fatalf("Cache = %+v, want locally pure with 64 state bytes", cache)
	}
	store := r.Class("Store")
	if store == nil || store.LocallyPure {
		t.Fatalf("Store = %+v, want locally impure (Put writes)", store)
	}
	if got := store.MethodPurity("Get"); got != ReadOnly {
		t.Fatalf("Store.Get purity = %s, want read-only", got)
	}
	if got := store.MethodPurity("Put"); got != Mutating {
		t.Fatalf("Store.Put purity = %s, want mutating", got)
	}
	nodesc := r.Class("NoDesc")
	if nodesc == nil || nodesc.LocallyPure || nodesc.MethodPurity("Do") != Unknown {
		t.Fatalf("NoDesc = %+v, want unknown-mutability methods", nodesc)
	}
	if nodesc.HasDescriptor {
		t.Fatal("NoDesc reports a state descriptor it does not have")
	}
}

func TestScanPropagatesImpurity(t *testing.T) {
	t.Parallel()
	// Pure can call Store (impure), Cache can call Pure: impurity must
	// close transitively, and edges from the main program are ignored.
	rg := &reach.Graph{Edges: []reach.Edge{
		{Src: "Pure", Dst: "Store", IID: "IStore"},
		{Src: "Cache", Dst: "Pure", IID: "IPure"},
		{Src: profile.MainProgram, Dst: "Store", IID: "IStore"},
	}}
	r := mustScan(t, testApp(), rg)
	if ci := r.Class("Pure"); !ci.ReachesImpure || !ci.Impure {
		t.Fatalf("Pure = %+v, want transitively impure via Store", ci)
	}
	if ci := r.Class("Cache"); !ci.ReachesImpure || !strings.Contains(ci.ImpureVia, "Pure") {
		t.Fatalf("Cache = %+v, want impure via Pure", ci)
	}
	if ci := r.Class("Store"); ci.ReachesImpure {
		t.Fatalf("Store = %+v: locally impure, must not also claim reach-impurity", ci)
	}
}

// gradeProfile builds a profile with one classification per class and the
// given call/write counts for Store.
func gradeProfile(storeCalls, storeWrites int64) *profile.Profile {
	p := profile.New("puritytest", "")
	for _, class := range []string{"Pure", "Cache", "Store", "NoDesc"} {
		p.AddInstance(class+"#0", class, nil)
	}
	p.Method("Store#0", "Get").Calls = storeCalls
	put := p.Method("Store#0", "Put")
	put.Calls, put.Writes = storeWrites, storeWrites
	p.Sort()
	return p
}

func TestGradeThetaBoundary(t *testing.T) {
	t.Parallel()
	r := mustScan(t, testApp(), &reach.Graph{})

	// 2 writes over 100 calls = 0.02 <= 0.05: read-mostly.
	g := r.Grade(gradeProfile(98, 2), 0)
	if g.Theta != DefaultTheta {
		t.Fatalf("theta = %v, want default %v", g.Theta, DefaultTheta)
	}
	if cg := g.Component("Pure#0"); cg == nil || cg.Grade != GradeStateless {
		t.Fatalf("Pure#0 = %+v, want stateless", cg)
	}
	if cg := g.Component("Cache#0"); cg == nil || cg.Grade != GradeReadMostly {
		t.Fatalf("Cache#0 = %+v, want read-mostly (state never written)", cg)
	}
	if cg := g.Component("Store#0"); cg == nil || cg.Grade != GradeReadMostly {
		t.Fatalf("Store#0 = %+v, want read-mostly under theta", cg)
	}
	if cg := g.Component("NoDesc#0"); cg == nil || cg.Grade != GradeStateful {
		t.Fatalf("NoDesc#0 = %+v, want stateful", cg)
	}
	if g.Component(profile.MainProgram) != nil {
		t.Fatal("the main program must never be graded")
	}
	want := []string{"Cache#0", "Pure#0", "Store#0"}
	if got := g.Replication.Classifications; len(got) != len(want) ||
		got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("replication set = %v, want %v", got, want)
	}
	if !g.Replication.Eligible("Store#0") || g.Replication.Eligible("NoDesc#0") {
		t.Fatal("replication eligibility disagrees with the set")
	}

	// 30 writes over 60 calls = 0.5 > theta: stateful.
	g = r.Grade(gradeProfile(30, 30), 0)
	if cg := g.Component("Store#0"); cg == nil || cg.Grade != GradeStateful {
		t.Fatalf("Store#0 = %+v, want stateful above theta", cg)
	}

	// Declared writers with no profile evidence stay stateful.
	g = r.Grade(gradeProfile(0, 0), 0)
	if cg := g.Component("Store#0"); cg == nil || cg.Grade != GradeStateful {
		t.Fatalf("Store#0 with zero calls = %+v, want stateful", cg)
	}
}

func TestVerifyPurityMiss(t *testing.T) {
	t.Parallel()
	r := mustScan(t, testApp(), &reach.Graph{})
	p := gradeProfile(10, 1)

	if fs := r.Verify(p); len(fs) != 0 {
		t.Fatalf("clean profile produced findings: %v", fs)
	}

	// A mutation observed through Store.Get — statically claimed
	// read-only — must be a hard error.
	p.Method("Store#0", "Get").Writes = 3
	fs := r.Verify(p)
	if len(fs) != 1 || fs[0].Kind != KindPurityMiss || fs[0].Severity != staticanal.SeverityError {
		t.Fatalf("findings = %v, want one %s error", fs, KindPurityMiss)
	}
	if !strings.Contains(fs[0].Detail, "Store#0.Get") {
		t.Fatalf("finding does not name the method: %s", fs[0].Detail)
	}

	// Mutations through an unclassified component are warnings, not misses.
	p = gradeProfile(10, 1)
	ghost := p.Method("Ghost#9", "Do")
	ghost.Calls, ghost.Writes = 1, 1
	fs = r.Verify(p)
	if len(fs) != 1 || fs[0].Kind != staticanal.KindUnknownClass || fs[0].Severity != staticanal.SeverityWarning {
		t.Fatalf("findings = %v, want one unknown-class warning", fs)
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
		{"missing bytes", []byte("coign-state v1\nread Get\n")},
	}
	for _, c := range corrupt {
		img := binimg.BuildImage(app)
		img.Sections = append(img.Sections, binimg.Section{Name: binimg.StatePrefix + "CLSID_X", Data: c.data})
		if _, err := Scan(img, app, &reach.Graph{}); err == nil {
			t.Errorf("%s: Scan accepted a corrupt state section", c.name)
		}
	}

	// A state record for an unregistered class is stale metadata, not an
	// error: it is reported, not rejected.
	img := binimg.BuildImage(app)
	img.Sections = append(img.Sections, binimg.Section{
		Name: binimg.StatePrefix + "CLSID_Stale",
		Data: binimg.EncodeState(&com.StateDesc{Bytes: 8}),
	})
	r, err := Scan(img, app, &reach.Graph{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.UnknownClasses) != 1 || r.UnknownClasses[0] != "CLSID_Stale" {
		t.Fatalf("UnknownClasses = %v, want [CLSID_Stale]", r.UnknownClasses)
	}
}

// FuzzPurityScan feeds arbitrary bytes through a state section: Scan must
// either parse or error, never panic, and duplicate records must be
// rejected.
func FuzzPurityScan(f *testing.F) {
	f.Add([]byte("coign-state v1\nbytes 64\nread Get\nwrite Put\n"))
	f.Add([]byte("coign-state v1\nbytes 0\n"))
	f.Add([]byte("coign-state v1\nbytes 9999999999999999999\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		app := testApp()
		img := binimg.BuildImage(app)
		img.Sections = append(img.Sections, binimg.Section{Name: binimg.StatePrefix + "CLSID_Fuzz", Data: data})
		r, err := Scan(img, app, &reach.Graph{})
		if err != nil {
			return
		}
		// Parsed: the decoded record must round-trip through the report.
		if len(r.UnknownClasses) != 1 {
			t.Fatalf("accepted record for unregistered class not reported: %v", r.UnknownClasses)
		}
	})
}

func TestRefinedShrinksImpurityClosure(t *testing.T) {
	t.Parallel()
	// Pure reaches impure Store, so the plain closure drags Pure (and
	// Cache, which calls Pure) into statefulness. An alias oracle proving
	// the Pure->Store edge carries no shared mutable state must free both
	// — and the refined replication set must be a superset of the plain
	// one.
	rg := &reach.Graph{Edges: []reach.Edge{
		{Src: "Pure", Dst: "Store", IID: "IStore"},
		{Src: "Cache", Dst: "Pure", IID: "IPure"},
	}}
	app := testApp()
	plain := mustScan(t, app, rg)

	may := func(a, b string) bool { return !(a == "Pure" && b == "Store") }
	refined := plain.Refined(may)
	if ci := refined.Class("Pure"); ci.ReachesImpure || ci.Impure {
		t.Fatalf("Pure = %+v, want freed by the alias oracle", ci)
	}
	if ci := refined.Class("Cache"); ci.ReachesImpure {
		t.Fatalf("Cache = %+v, want freed transitively", ci)
	}
	// Store stays locally impure regardless of aliasing.
	if ci := refined.Class("Store"); ci.LocallyPure {
		t.Fatalf("Store = %+v, want locally impure", ci)
	}

	p := gradeProfile(98, 2)
	plainSet := plain.Grade(p, 0).Replication.Classifications
	refinedSet := refined.Grade(p, 0).Replication.Classifications
	eligible := make(map[string]bool, len(refinedSet))
	for _, id := range refinedSet {
		eligible[id] = true
	}
	for _, id := range plainSet {
		if !eligible[id] {
			t.Fatalf("refined replication set %v lost %s from plain set %v", refinedSet, id, plainSet)
		}
	}
	if len(refinedSet) <= len(plainSet) {
		t.Fatalf("refined set %v did not grow over plain %v", refinedSet, plainSet)
	}

	// A nil oracle must reproduce the plain closure exactly.
	same := plain.Refined(nil)
	if got, want := same.Class("Pure").ReachesImpure, plain.Class("Pure").ReachesImpure; got != want {
		t.Fatalf("nil-oracle Refined diverges from Scan: %v vs %v", got, want)
	}
}
