package rte

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/logger"
	"repro/internal/profile"
)

// chainApp builds an app where Root.Run creates a Leaf and calls it,
// exercising nested instantiation (non-empty shadow stack) and nested
// calls.
func chainApp() *com.App {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IRoot", Remotable: true,
		Methods: []idl.MethodDesc{{
			Name:   "Run",
			Result: idl.TInt32,
		}},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "ILeaf", Remotable: true,
		Methods: []idl.MethodDesc{{
			Name:   "Work",
			Params: []idl.ParamDesc{{Name: "data", Dir: idl.In, Type: idl.TBytes}},
			Result: idl.TInt32,
		}},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IHold", Remotable: true,
		Methods: []idl.MethodDesc{{
			Name:   "Hold",
			Params: []idl.ParamDesc{{Name: "p", Dir: idl.In, Type: idl.InterfaceType("ILeaf")}},
			Result: idl.TVoid,
		}},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "ISharedMem", Remotable: false,
		Methods: []idl.MethodDesc{{
			Name:   "Ptr",
			Params: []idl.ParamDesc{{Name: "p", Dir: idl.In, Type: idl.TOpaque}},
			Result: idl.TVoid,
		}},
	})

	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_Root", Name: "Root", Interfaces: []string{"IRoot"},
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				leaf, err := c.Create("CLSID_Leaf")
				if err != nil {
					return nil, err
				}
				itf, err := c.Env.Query(leaf, "ILeaf")
				if err != nil {
					return nil, err
				}
				return c.Invoke(itf, "Work", idl.ByteBuf(make([]byte, 100)))
			})
		},
	})
	classes.Register(&com.Class{
		ID: "CLSID_Leaf", Name: "Leaf", Interfaces: []string{"ILeaf", "IHold", "ISharedMem"},
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				switch c.Method {
				case "Work":
					return []idl.Value{idl.Int32(int32(len(c.Args[0].Bytes)))}, nil
				case "Ptr":
					return []idl.Value{}, nil
				}
				return nil, nil
			})
		},
	})
	return &com.App{Name: "chain", Classes: classes, Interfaces: ifaces}
}

func attach(t *testing.T, env *com.Env, opts Options) *RTE {
	t.Helper()
	if opts.Table == nil {
		opts.Table = classify.NewTable(classify.New(classify.IFCB, 0))
	}
	r, err := Attach(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAttachRequiresTable(t *testing.T) {
	t.Parallel()
	env := com.NewEnv(chainApp())
	if _, err := Attach(env, Options{}); err == nil {
		t.Error("attach without table succeeded")
	}
}

func TestProfilingRunCollectsEverything(t *testing.T) {
	t.Parallel()
	env := com.NewEnv(chainApp())
	trace := logger.NewTrace()
	r := attach(t, env, Options{Logger: trace})

	r.BeginRun("scenario1")
	root, err := env.CreateInstance(nil, "CLSID_Root")
	if err != nil {
		t.Fatal(err)
	}
	itf := mustQuery(env, root, "IRoot")
	if _, err := env.Call(nil, itf, "Run"); err != nil {
		t.Fatal(err)
	}
	r.EndRun()

	p := trace.Profile()
	if p == nil {
		t.Fatal("no profile")
	}
	if p.Classifier != "ifcb" || p.App != "chain" {
		t.Errorf("profile of %s under %s, want chain under ifcb", p.App, p.Classifier)
	}
	var instances int64
	for _, ci := range p.Classifications {
		instances += ci.Instances
	}
	if instances != 2 {
		t.Fatalf("instances = %d", instances)
	}
	if p.TotalCalls() != 2 {
		t.Fatalf("calls = %d", p.TotalCalls())
	}
	// Root's classification context is <main>; Leaf's creator is Root.
	var rootClassification, leafClassification string
	for _, ci := range p.Classifications {
		switch ci.Class {
		case "Root":
			rootClassification = ci.ID
		case "Leaf":
			leafClassification = ci.ID
		}
	}
	if rootClassification == "" || leafClassification == "" {
		t.Fatalf("%d classifications, want a Root and a Leaf", len(p.Classifications))
	}
	// The main->Root edge and Root->Leaf edge both exist.
	if p.Edge(profile.MainProgram, rootClassification).Calls != 1 {
		t.Error("main->Root edge missing")
	}
	e := p.Edge(rootClassification, leafClassification)
	if e.Calls != 1 {
		t.Error("Root->Leaf edge missing")
	}
	// Leaf received 100 bytes of payload plus header.
	if e.ExactInBytes != int64(DCOMHeaderBytes+4+100) {
		t.Errorf("leaf in bytes = %d", e.ExactInBytes)
	}
	// The trace's instantiation records carry their creators: Leaf's is
	// Root.
	var leafRec *logger.InstRecord
	for i := 0; i < trace.Len(); i++ {
		if ev := trace.At(i); ev.Kind == logger.EvInstantiation && ev.Inst.Class == "Leaf" {
			leafRec = &ev.Inst
		}
	}
	if leafRec == nil || leafRec.CreatorInst != root.ID || leafRec.Classification != leafClassification {
		t.Fatalf("leaf record = %+v, want created by #%d", leafRec, root.ID)
	}
	if r.Calls() != 2 {
		t.Errorf("calls = %d", r.Calls())
	}
	if len(r.stack) != 0 {
		t.Errorf("stack depth after run = %d", len(r.stack))
	}
}

func TestClassifierSeesNestedContext(t *testing.T) {
	t.Parallel()
	// Two Leafs created from different contexts (main vs Root) must get
	// different IFCB classifications.
	env := com.NewEnv(chainApp())
	r := attach(t, env, Options{})
	r.BeginRun("s")
	leafDirect, _ := env.CreateInstance(nil, "CLSID_Leaf")
	root, _ := env.CreateInstance(nil, "CLSID_Root")
	itf := mustQuery(env, root, "IRoot")
	if _, err := env.Call(nil, itf, "Run"); err != nil {
		t.Fatal(err)
	}
	r.EndRun()
	var leafNested *com.Instance
	for _, in := range env.Instances() {
		if in.Class.Name == "Leaf" && in != leafDirect {
			leafNested = in
		}
	}
	if leafNested == nil {
		t.Fatal("nested leaf not created")
	}
	if leafDirect.Classification == leafNested.Classification {
		t.Error("IFCB failed to distinguish creation contexts")
	}
}

type recordingComm struct {
	calls int
	req   int
	resp  int
}

func (c *recordingComm) RemoteCall(from, to com.Machine, reqBytes, respBytes int) {
	c.calls++
	c.req += reqBytes
	c.resp += respBytes
}

func TestPlacerAndRemoteCommunication(t *testing.T) {
	t.Parallel()
	env := com.NewEnv(chainApp())
	comm := &recordingComm{}
	// Place every Leaf on the server.
	placer := func(_ string, cl *com.Class, creator com.Machine) com.Machine {
		if cl.Name == "Leaf" {
			return com.Server
		}
		return creator
	}
	r := attach(t, env, Options{Placer: placer, Comm: comm})
	r.BeginRun("s")
	root, _ := env.CreateInstance(nil, "CLSID_Root")
	itf := mustQuery(env, root, "IRoot")
	if _, err := env.Call(nil, itf, "Run"); err != nil {
		t.Fatal(err)
	}
	r.EndRun()

	// One remote instantiation (Leaf) + one crossing call (Root->Leaf).
	if comm.calls != 2 {
		t.Fatalf("remote events = %d", comm.calls)
	}
	// The crossing call is charged its measured size: Work's 100-byte
	// buffer (plus its 4-byte length) and Int32 result, each with headers.
	if comm.req != 2*DCOMHeaderBytes+len("CLSID_Leaf")+4+100 {
		t.Errorf("request bytes = %d", comm.req)
	}
	if r.Violations() != 0 {
		t.Errorf("violations = %d", r.Violations())
	}
}

func TestNonRemotableCrossingCountsViolation(t *testing.T) {
	t.Parallel()
	env := com.NewEnv(chainApp())
	comm := &recordingComm{}
	placer := func(_ string, cl *com.Class, creator com.Machine) com.Machine {
		if cl.Name == "Leaf" {
			return com.Server
		}
		return creator
	}
	r := attach(t, env, Options{Placer: placer, Comm: comm})
	r.BeginRun("s")
	leaf, _ := env.CreateInstance(nil, "CLSID_Leaf")
	shm := mustQuery(env, leaf, "ISharedMem")
	if _, err := env.Call(nil, shm, "Ptr", idl.OpaquePtr("region")); err != nil {
		t.Fatal(err)
	}
	r.EndRun()
	if r.Violations() != 1 {
		t.Errorf("violations = %d, want 1", r.Violations())
	}
}

func TestBeginRunResetsState(t *testing.T) {
	t.Parallel()
	env := com.NewEnv(chainApp())
	tab := classify.NewTable(classify.New(classify.Incremental, 0))
	trace := new(logger.Trace)
	r := attach(t, env, Options{Table: tab, Logger: trace})
	r.BeginRun("s1")
	a, _ := env.CreateInstance(nil, "CLSID_Leaf")
	r.EndRun()
	r.BeginRun("s2")
	b, _ := env.CreateInstance(nil, "CLSID_Leaf")
	r.EndRun()
	// The incremental classifier restarts per run, so both first
	// instantiations share a classification.
	if a.Classification != b.Classification {
		t.Error("incremental classifier not reset between runs")
	}
	if got := trace.Profile().Scenarios; len(got) != 1 || got[0] != "s2" {
		t.Errorf("last run's scenarios = %v", got)
	}
}

func TestSnapshotOrdering(t *testing.T) {
	t.Parallel()
	// During a nested call the classifier's view of the shadow stack lists
	// innermost frames first.
	env := com.NewEnv(chainApp())
	var r *RTE
	var depthInsideLeaf int
	var snap []classify.Frame
	classes := env.App().Classes
	classes.Register(&com.Class{
		ID: "CLSID_Probe", Name: "Probe", Interfaces: []string{"ILeaf"},
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				depthInsideLeaf = len(r.stack)
				snap = r.appendInnermostFirst(nil)
				return []idl.Value{idl.Int32(0)}, nil
			})
		},
	})
	r = attach(t, env, Options{})
	r.BeginRun("s")
	probe, _ := env.CreateInstance(nil, "CLSID_Probe")
	root, _ := env.CreateInstance(nil, "CLSID_Root")
	_ = root
	itf := mustQuery(env, probe, "ILeaf")
	if _, err := env.Call(nil, itf, "Work", idl.ByteBuf(nil)); err != nil {
		t.Fatal(err)
	}
	if depthInsideLeaf != 1 {
		t.Errorf("depth inside call = %d", depthInsideLeaf)
	}
	if len(snap) != 1 || snap[0].Class != "Probe" || snap[0].Function != "Work" {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestTrappedIfaceCallAllocs guards the distribution runtime's per-call
// cost: a local call passing one interface pointer, through the RTE with
// the null logger, allocates nothing — the *Call comes from the
// environment's free list and holds its arguments inline, so the caller's
// variadic list stays on its stack, and no descriptor is built for the
// pointer's type. Not parallel, so no other test's allocations are
// counted.
//
//lint:allow paralleltest allocation counts are process-wide
func TestTrappedIfaceCallAllocs(t *testing.T) {
	env := com.NewEnv(chainApp())
	r := attach(t, env, Options{})
	r.BeginRun("s")
	leaf, err := env.CreateInstance(nil, "CLSID_Leaf")
	if err != nil {
		t.Fatal(err)
	}
	hold := mustQuery(env, leaf, "IHold")
	arg := mustQuery(env, leaf, "ILeaf")
	allocs := testing.AllocsPerRun(100, func() {
		_, err = env.Call(nil, hold, "Hold", idl.IfacePtr(arg))
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("trapped call with an interface pointer allocates %v objects, want 0", allocs)
	}
}

// warmInstantiationAllocs counts what one instantiation allocates once the
// table has seen its context: through an RTE attached with opts, three
// frames deep so the IFCB descriptor walks a stack, or with no hooks when
// opts is nil.
func warmInstantiationAllocs(t *testing.T, opts *Options) float64 {
	t.Helper()
	env := com.NewEnv(chainApp())
	if opts != nil {
		r := attach(t, env, *opts)
		r.BeginRun("s")
		r.stack = []classify.Frame{ // outermost first
			{Instance: 1, Class: "Root", InstClassification: "Root@1", Function: "Run"},
			{Instance: 2, Class: "Leaf", InstClassification: "Leaf@2", Function: "Work"},
			{Instance: 2, Class: "Leaf", InstClassification: "Leaf@2", Function: "Ptr"},
		}
	}
	create := func() {
		if _, err := env.CreateInstance(nil, "CLSID_Leaf"); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 { // warm: the table has seen the context
		create()
	}
	return testing.AllocsPerRun(100, create)
}

// TestInstantiationAllocs guards the classification path: with the null
// logger and a table that has seen the context, an instantiation through
// the RTE allocates no more than the same CreateInstance with no hooks.
// Not parallel, so no other test's allocations are counted.
//
//lint:allow paralleltest allocation counts are process-wide
func TestInstantiationAllocs(t *testing.T) {
	bare, hooked := warmInstantiationAllocs(t, nil), warmInstantiationAllocs(t, &Options{})
	if hooked > bare {
		t.Errorf("instantiation through the RTE allocates %v objects, bare CreateInstance %v", hooked, bare)
	}
}

// TestLoggedInstantiationAllocs guards the profiling runtime's
// instantiation: with a zero *logger.Trace attached, which folds the
// profile without storing events, and a context the table has seen, a
// logged instantiation allocates no more than the same CreateInstance with
// no hooks. The activation path is the one handed out before, so nothing
// is copied. Not parallel, so no other test's allocations are counted.
//
//lint:allow paralleltest allocation counts are process-wide
func TestLoggedInstantiationAllocs(t *testing.T) {
	bare := warmInstantiationAllocs(t, nil)
	logged := warmInstantiationAllocs(t, &Options{Logger: &logger.Trace{}})
	if logged > bare {
		t.Errorf("logged instantiation through the RTE allocates %v objects, bare CreateInstance %v", logged, bare)
	}
}

// TestActivationPathShared checks the paths a logged run hands out: a
// main-program instantiation's path is empty but non-nil, consecutive
// instantiations in one context share one path, and so does their
// classification in the profile, and a path is capacity-clipped, so
// appending to one leaves another unchanged.
func TestActivationPathShared(t *testing.T) {
	t.Parallel()
	env := com.NewEnv(chainApp())
	trace := logger.NewTrace()
	r := attach(t, env, Options{Logger: trace})
	r.BeginRun("s")
	for range 2 {
		if _, err := env.CreateInstance(nil, "CLSID_Leaf"); err != nil {
			t.Fatal(err)
		}
	}
	r.stack = []classify.Frame{{Instance: 1, Class: "Leaf", InstClassification: "Leaf@1", Function: "Work"}}
	for range 2 {
		if _, err := env.CreateInstance(nil, "CLSID_Leaf"); err != nil {
			t.Fatal(err)
		}
	}
	r.EndRun()
	var paths [][]string
	var classifications []string
	for i := 0; i < trace.Len(); i++ {
		if ev := trace.At(i); ev.Kind == logger.EvInstantiation {
			paths = append(paths, ev.Inst.Path)
			classifications = append(classifications, ev.Inst.Classification)
		}
	}
	if len(paths) != 4 {
		t.Fatalf("%d instantiations recorded, want 4", len(paths))
	}
	if paths[0] == nil || len(paths[0]) != 0 {
		t.Errorf("main-program path = %#v, want empty and non-nil", paths[0])
	}
	if len(paths[2]) != 1 || paths[2][0] != "Leaf" || &paths[2][0] != &paths[3][0] {
		t.Errorf("paths in one context = %q and %q, want one shared [Leaf]", paths[2], paths[3])
	}
	grown := append(paths[2], "Extra")
	grown[0] = "Changed"
	if paths[3][0] != "Leaf" || len(paths[3]) != 1 {
		t.Errorf("appending to one instance's path changed another's: %q", paths[3])
	}
	// A classification shares its first instance's path instead of a copy.
	ci := trace.Profile().Classification(classifications[2])
	if &ci.Path[0] != &paths[2][0] {
		t.Errorf("classification path %q is a copy of its instance's", ci.Path)
	}
	if ci.Path[0] != "Leaf" {
		t.Errorf("profile path = %q after an append to a recorded path", ci.Path)
	}
}

type fakePtr struct{ id uint64 }

func (p fakePtr) IID() string        { return "IFake" }
func (p fakePtr) InstanceID() uint64 { return p.id }

func TestMeasureMessage(t *testing.T) {
	t.Parallel()
	remotable := &idl.InterfaceDesc{IID: "IReader", Remotable: true}
	in, out, nonRemotable := measure(remotable, nil, nil)
	if in != DCOMHeaderBytes || out != DCOMHeaderBytes || nonRemotable {
		t.Errorf("empty call = %d/%d non-remotable %v", in, out, nonRemotable)
	}
	vals := []idl.Value{idl.String("abcd"), idl.Value{Type: idl.TInt64, Int: 1}}
	if in, out, _ = measure(remotable, vals, vals); in != DCOMHeaderBytes+8+8 || out != in {
		t.Errorf("message = %d/%d, want %d", in, out, DCOMHeaderBytes+8+8)
	}
}

func TestMeasureDeepCopySize(t *testing.T) {
	t.Parallel()
	remotable := &idl.InterfaceDesc{IID: "IReader", Remotable: true}
	args := []idl.Value{idl.String("abcd"), idl.Value{Type: idl.TInt64, Int: 1}, idl.IfacePtr(fakePtr{3}), idl.IfacePtr(nil)}
	rets := []idl.Value{idl.Zeros(1000), idl.Int32(0)}
	in, out, nonRemotable := measure(remotable, args, rets)
	// A string is its length prefix and bytes; a nil pointer is a marker.
	if want := DCOMHeaderBytes + (4 + 4) + 8 + args[2].DeepSize() + 4; in != want {
		t.Errorf("in bytes = %d, want %d", in, want)
	}
	if out != DCOMHeaderBytes+4+1000+4 {
		t.Errorf("out bytes = %d", out)
	}
	if nonRemotable {
		t.Error("plain values reported non-remotable")
	}
}

func TestMeasureDetectsNonRemotable(t *testing.T) {
	t.Parallel()
	remotable := &idl.InterfaceDesc{IID: "IReader", Remotable: true}
	local := &idl.InterfaceDesc{IID: "ISpriteCache", Remotable: false}
	plain := []idl.Value{idl.Int32(1)}
	opaque := []idl.Value{idl.OpaquePtr("shm")}
	// An empty array whose element type is opaque still cannot marshal.
	emptyOpaque := []idl.Value{{Type: &idl.TypeDesc{Kind: idl.KindArray, Elem: idl.TOpaque}}}
	for _, c := range []struct {
		name       string
		iface      *idl.InterfaceDesc
		args, rets []idl.Value
		want       bool
	}{
		{"plain", remotable, plain, plain, false},
		{"no metadata", nil, plain, plain, false},
		{"local interface", local, plain, plain, true},
		{"opaque argument", remotable, opaque, plain, true},
		{"opaque result", remotable, plain, opaque, true},
		{"empty opaque array", remotable, emptyOpaque, nil, true},
	} {
		if _, _, got := measure(c.iface, c.args, c.rets); got != c.want {
			t.Errorf("%s: non-remotable = %v, want %v", c.name, got, c.want)
		}
	}
}

// mustQuery is Query for requests a test knows are good.
func mustQuery(env *com.Env, inst *com.Instance, iid string) *com.Interface {
	itf, err := env.Query(inst, iid)
	if err != nil {
		panic(err)
	}
	return itf
}
