package com

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/idl"
)

// testApp builds a two-class application: a Counter that accumulates, and a
// Caller that invokes the counter when poked.
func testApp() *App {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{
		IID: "ICounter", Name: "ICounter", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Add", Params: []idl.ParamDesc{{Name: "n", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TInt32},
			{Name: "Get", Result: idl.TInt32},
		},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IPoke", Name: "IPoke", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Poke", Params: []idl.ParamDesc{
				{Name: "target", Dir: idl.In, Type: idl.InterfaceType("ICounter")},
			}, Result: idl.TInt32},
		},
	})

	classes := NewClassRegistry()
	classes.Register(&Class{
		ID: "CLSID_Counter", Name: "Counter", Interfaces: []string{"ICounter"},
		APIs:      []string{APIFileRead},
		CodeBytes: 4096,
		New: func() Object {
			total := int64(0)
			return ObjectFunc(func(c *Call) ([]idl.Value, error) {
				switch c.Method {
				case "Add":
					total += c.Args[0].AsInt()
					return []idl.Value{idl.Int32(int32(total))}, nil
				case "Get":
					return []idl.Value{idl.Int32(int32(total))}, nil
				}
				return nil, errors.New("bad method")
			})
		},
	})
	classes.Register(&Class{
		ID: "CLSID_Caller", Name: "Caller", Interfaces: []string{"IPoke"},
		APIs:      []string{APIUserWindow},
		CodeBytes: 1024,
		New: func() Object {
			return ObjectFunc(func(c *Call) ([]idl.Value, error) {
				c.Compute(time.Millisecond)
				target, ok := c.Args[0].Iface.(*Interface)
				if !ok {
					return nil, errors.New("Caller: arg 0 is not an interface")
				}
				return c.Invoke(target, "Add", idl.Int32(5))
			})
		},
	})

	return &App{
		Name:       "testapp",
		Classes:    classes,
		Interfaces: ifaces,
		Imports:    []string{"testapp.exe", "widgets.dll"},
	}
}

func TestClassRegistry(t *testing.T) {
	t.Parallel()
	app := testApp()
	if app.Classes.Len() != 2 {
		t.Fatalf("Len = %d", app.Classes.Len())
	}
	c := app.Classes.Lookup("CLSID_Counter")
	if c == nil || c.Name != "Counter" {
		t.Fatalf("Lookup = %+v", c)
	}
	if app.Classes.Lookup("CLSID_None") != nil {
		t.Fatal("unknown class found")
	}
	all := app.Classes.Classes()
	if len(all) != 2 || all[0].ID > all[1].ID {
		t.Fatalf("Classes() not sorted: %v %v", all[0].ID, all[1].ID)
	}
	if !c.Implements("ICounter") || c.Implements("IPoke") {
		t.Error("Implements broken")
	}
}

func TestClassRegistryPanics(t *testing.T) {
	t.Parallel()
	for name, reg := range map[string]func(*ClassRegistry){
		"empty clsid": func(r *ClassRegistry) {
			r.Register(&Class{New: func() Object { return nil }})
		},
		"no constructor": func(r *ClassRegistry) {
			r.Register(&Class{ID: "X"})
		},
		"duplicate": func(r *ClassRegistry) {
			c := &Class{ID: "X", New: func() Object { return nil }}
			r.Register(c)
			r.Register(c)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			reg(NewClassRegistry())
		}()
	}
}

func TestCreateAndCall(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	counter, err := env.CreateInstance(nil, "CLSID_Counter")
	if err != nil {
		t.Fatal(err)
	}
	if counter.ID != 1 || counter.Machine != Client {
		t.Fatalf("instance = %+v", counter)
	}
	itf, err := env.Query(counter, "ICounter")
	if err != nil {
		t.Fatal(err)
	}
	if itf.IID() != "ICounter" || itf.InstanceID() != counter.ID || itf.Instance() != counter {
		t.Fatalf("interface = %+v", itf)
	}
	out, err := env.Call(nil, itf, "Add", idl.Int32(7))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].AsInt() != 7 {
		t.Fatalf("Add returned %v", out)
	}
	out, _ = env.Call(nil, itf, "Add", idl.Int32(3))
	if out[0].AsInt() != 10 {
		t.Fatalf("second Add returned %v", out)
	}
}

func TestNestedCallThroughComponent(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	counter, _ := env.CreateInstance(nil, "CLSID_Counter")
	caller, _ := env.CreateInstance(nil, "CLSID_Caller")
	citf := env.MustQuery(counter, "ICounter")
	pitf := env.MustQuery(caller, "IPoke")
	out, err := env.Call(nil, pitf, "Poke", idl.IfacePtr(citf))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].AsInt() != 5 {
		t.Fatalf("Poke returned %v", out)
	}
	if all := env.Instances(); len(all) != 2 {
		t.Fatalf("instances = %+v, want 2", all)
	}
}

func TestStrictValidation(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	counter, _ := env.CreateInstance(nil, "CLSID_Counter")
	itf := env.MustQuery(counter, "ICounter")
	if _, err := env.Call(nil, itf, "Add"); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := env.Call(nil, itf, "Add", idl.String("x")); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := env.Call(nil, itf, "NoSuch"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	counter, _ := env.CreateInstance(nil, "CLSID_Counter")
	if _, err := env.Query(counter, "IPoke"); err == nil {
		t.Error("query for unimplemented interface succeeded")
	}
	if _, err := env.Query(nil, "ICounter"); err == nil {
		t.Error("query on nil instance succeeded")
	}
}

func TestCreateUnknownClass(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	if _, err := env.CreateInstance(nil, "CLSID_None"); err == nil {
		t.Fatal("unknown class created")
	}
}

func TestHooksIntercept(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	var created []CLSID
	var calls []string
	env.SetHooks(Hooks{
		CreateInstance: func(creator *Instance, class *Class, next func(*Class, Machine) *Instance) (*Instance, error) {
			created = append(created, class.ID)
			return next(class, Server), nil // relocate everything to the server
		},
		CallInterface: func(caller *Instance, target *Interface, call *Call,
			next func(*Call) ([]idl.Value, error)) ([]idl.Value, error) {
			calls = append(calls, target.IID()+"."+call.Method)
			return next(call)
		},
	})
	counter, err := env.CreateInstance(nil, "CLSID_Counter")
	if err != nil {
		t.Fatal(err)
	}
	if counter.Machine != Server {
		t.Fatalf("hook placement ignored: %v", counter.Machine)
	}
	itf := env.MustQuery(counter, "ICounter")
	if _, err := env.Call(nil, itf, "Get"); err != nil {
		t.Fatal(err)
	}
	if len(created) != 1 || created[0] != "CLSID_Counter" {
		t.Fatalf("created = %v", created)
	}
	if len(calls) != 1 || calls[0] != "ICounter.Get" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestDefaultPlacementFollowsCreator(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	parent, _ := env.CreateInstance(nil, "CLSID_Counter")
	parent.Machine = Server
	child, _ := env.CreateInstance(parent, "CLSID_Counter")
	if child.Machine != Server {
		t.Fatalf("child machine = %v, want server", child.Machine)
	}
}

type recordingClock struct {
	total   time.Duration
	machine Machine
}

func (c *recordingClock) Compute(m Machine, d time.Duration) {
	c.machine = m
	c.total += d
}

func TestComputeClock(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	clk := &recordingClock{}
	env.SetClock(clk)
	counter, _ := env.CreateInstance(nil, "CLSID_Counter")
	caller, _ := env.CreateInstance(nil, "CLSID_Caller")
	caller.Machine = Server
	citf := env.MustQuery(counter, "ICounter")
	pitf := env.MustQuery(caller, "IPoke")
	if _, err := env.Call(nil, pitf, "Poke", idl.IfacePtr(citf)); err != nil {
		t.Fatal(err)
	}
	if clk.total != time.Millisecond || clk.machine != Server {
		t.Fatalf("clock = %+v", clk)
	}
	// Compute with a nil clock or nil instance must not crash.
	env.SetClock(nil)
	env.Compute(nil, time.Second)
	env.SetClock(clk)
	env.Compute(nil, time.Second)
	if clk.machine != Client {
		t.Fatal("nil instance should accrue on client")
	}
}

func TestInstancesIteration(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	if env.Instance(0) != nil || env.Instance(1) != nil || len(env.Instances()) != 0 {
		t.Fatal("an empty Env has instances")
	}
	a, _ := env.CreateInstance(nil, "CLSID_Counter")
	b, _ := env.CreateInstance(nil, "CLSID_Caller")
	all := env.Instances()
	if len(all) != 2 || all[0] != a || all[1] != b {
		t.Fatalf("Instances = %v, want creation order", all)
	}
	if env.Instance(a.ID) != a || env.Instance(b.ID) != b {
		t.Fatal("Instance lookup broken")
	}
	if env.Instance(0) != nil || env.Instance(3) != nil || env.Instance(999) != nil {
		t.Errorf("Instance(0), Instance(3), Instance(999) = %p, %p, %p, want nil",
			env.Instance(0), env.Instance(3), env.Instance(999))
	}
}

// TestInstanceChunkBoundaries walks ids across many chunk boundaries of
// the instance table: every id finds its own instance, and an instance
// does not move when later chunks are made.
func TestInstanceChunkBoundaries(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	var third *Instance
	for id := uint64(1); id <= 1000; id++ {
		in, err := env.CreateInstance(nil, "CLSID_Counter")
		if err != nil {
			t.Fatal(err)
		}
		if in.ID != id {
			t.Fatalf("instance %d has id %d", id, in.ID)
		}
		if id == 3 {
			third = in
		}
	}
	for id := uint64(1); id <= 1000; id++ {
		if in := env.Instance(id); in == nil || in.ID != id {
			t.Fatalf("Instance(%d) = %+v", id, in)
		}
	}
	if env.Instance(3) != third || third.ID != 3 || third.Class.Name != "Counter" {
		t.Errorf("instance 3 moved: Instance(3) = %p, kept %p (id %d)", env.Instance(3), third, third.ID)
	}
	if itf := env.MustQuery(third, "ICounter"); itf.Instance() != third {
		t.Errorf("instance 3's handle points at %p, want %p", itf.Instance(), third)
	}
}

// TestConstructorInstantiates checks that a constructor creating an
// instance of its own leaves its creator's slot alone: the outer instance
// takes the first id and keeps it.
func TestConstructorInstantiates(t *testing.T) {
	t.Parallel()
	app := testApp()
	var env *Env
	var inner *Instance
	app.Classes.Register(&Class{
		ID: "CLSID_Outer", Name: "Outer", Interfaces: []string{"IPoke"},
		New: func() Object {
			inner, _ = env.CreateInstance(nil, "CLSID_Counter")
			return ObjectFunc(func(*Call) ([]idl.Value, error) { return nil, nil })
		},
	})
	env = NewEnv(app)
	outer, err := env.CreateInstance(nil, "CLSID_Outer")
	if err != nil {
		t.Fatal(err)
	}
	if outer.ID != 1 || outer.Class.Name != "Outer" || inner.ID != 2 || inner.Class.Name != "Counter" {
		t.Fatalf("outer %d %s, inner %d %s", outer.ID, outer.Class.Name, inner.ID, inner.Class.Name)
	}
	if env.Instance(1) != outer || env.Instance(2) != inner || env.MustQuery(outer, "IPoke").Instance() != outer {
		t.Errorf("Instance(1) = %p, Instance(2) = %p, want %p and %p", env.Instance(1), env.Instance(2), outer, inner)
	}
}

func TestMachineString(t *testing.T) {
	t.Parallel()
	if Client.String() != "client" || Server.String() != "server" ||
		Machine(7).String() != "machine7" {
		t.Fatal("Machine.String broken")
	}
}

func TestMustQueryPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env := NewEnv(testApp())
	counter, _ := env.CreateInstance(nil, "CLSID_Counter")
	env.MustQuery(counter, "INope")
}

func TestCallNilInterface(t *testing.T) {
	t.Parallel()
	env := NewEnv(testApp())
	if _, err := env.Call(nil, nil, "Get"); err == nil {
		t.Fatal("call through nil interface succeeded")
	}
}

// mixApp is testApp plus IMix.Mix, whose parameters interleave In, Out and
// InOut directions, and ISink.Put, a one-Int32 method that allocates
// nothing.
func mixApp() *App {
	app := testApp()
	app.Interfaces.Register(&idl.InterfaceDesc{
		IID: "IMix", Name: "IMix", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Mix", Params: []idl.ParamDesc{
			{Name: "n", Dir: idl.In, Type: idl.TInt32},
			{Name: "out", Dir: idl.Out, Type: idl.TInt32},
			{Name: "s", Dir: idl.InOut, Type: idl.TString},
			{Name: "p", Dir: idl.In, Type: idl.InterfaceType("ICounter")},
		}}},
	})
	app.Interfaces.Register(&idl.InterfaceDesc{
		IID: "ISink", Name: "ISink", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Put", Params: []idl.ParamDesc{{Name: "n", Dir: idl.In, Type: idl.TInt32}}},
			{Name: "Flush"},
			{Name: "Put5", Params: []idl.ParamDesc{
				{Name: "a", Dir: idl.In, Type: idl.TInt32},
				{Name: "b", Dir: idl.In, Type: idl.TInt32},
				{Name: "c", Dir: idl.In, Type: idl.TInt32},
				{Name: "d", Dir: idl.In, Type: idl.TInt32},
				{Name: "e", Dir: idl.In, Type: idl.TString},
			}},
		},
	})
	app.Classes.Register(&Class{
		ID: "CLSID_Mix", Name: "Mix", Interfaces: []string{"IMix", "ISink"},
		New: func() Object {
			return ObjectFunc(func(*Call) ([]idl.Value, error) { return nil, nil })
		},
	})
	return app
}

// TestStrictErrorTable pins the validation messages and their order:
// arity before kinds, argument positions counted over In and InOut
// parameters only. The expected strings were captured before the check
// stopped allocating.
func TestStrictErrorTable(t *testing.T) {
	t.Parallel()
	env := NewEnv(mixApp())
	mix, _ := env.CreateInstance(nil, "CLSID_Mix")
	counter, _ := env.CreateInstance(nil, "CLSID_Counter")
	caller, _ := env.CreateInstance(nil, "CLSID_Caller")
	itf := env.MustQuery(mix, "IMix")
	citf := env.MustQuery(counter, "ICounter")
	pitf := env.MustQuery(caller, "IPoke")
	for _, tc := range []struct {
		name string
		args []idl.Value
		want string
	}{
		{"too few", []idl.Value{idl.Int32(1)},
			"com: IMix.Mix called with 1 args, want 3"},
		{"too many", []idl.Value{idl.Int32(1), idl.String("s"), idl.IfacePtr(citf), idl.Int32(2)},
			"com: IMix.Mix called with 4 args, want 3"},
		{"kind at 0", []idl.Value{idl.String("x"), idl.String("s"), idl.IfacePtr(citf)},
			"com: IMix.Mix arg 0 kind mismatch"},
		{"untyped at 0", []idl.Value{{}, idl.String("s"), idl.IfacePtr(citf)},
			"com: IMix.Mix arg 0 kind mismatch"},
		// Int32 would match the Out param at Params[1]; it must be skipped.
		{"kind at 1", []idl.Value{idl.Int32(1), idl.Int32(2), idl.IfacePtr(citf)},
			"com: IMix.Mix arg 1 kind mismatch"},
		{"shape at 2", []idl.Value{idl.Int32(1), idl.String("s"),
			{Type: idl.InterfaceType("ICounter"), Iface: pitf}},
			"com: IMix.Mix arg 2: idl: interface pointer has IID IPoke, want ICounter"},
		{"out skipped", []idl.Value{idl.Int32(1), idl.String("s"), idl.IfacePtr(citf)}, ""},
	} {
		_, err := env.Call(nil, itf, "Mix", tc.args...)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestTrappedCallAllocs guards the per-call cost of the trapped path: a
// strict call of a one-Int32 method through a pass-through hook allocates
// nothing — the *Call comes from the environment's free list and copies
// the arguments inline, so the variadic slice stays on the caller's stack;
// the strict check builds no parameter slice and the hook gets no closure.
// Not parallel, so no other test's allocations are counted.
//
//lint:allow paralleltest allocation counts are process-wide
func TestTrappedCallAllocs(t *testing.T) {
	env := NewEnv(mixApp())
	env.SetHooks(Hooks{CallInterface: func(_ *Instance, _ *Interface, call *Call,
		next func(*Call) ([]idl.Value, error)) ([]idl.Value, error) {
		return next(call)
	}})
	inst, _ := env.CreateInstance(nil, "CLSID_Mix")
	itf := env.MustQuery(inst, "ISink")
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = env.Call(nil, itf, "Put", idl.Int32(7))
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("trapped strict call allocates %v objects, want 0", allocs)
	}
}

// TestReturnedCallIsZero checks that a Call goes back for reuse empty, so
// recycled Calls pin no application value, whether its arguments were
// inline (none, one) or spilled past the inline array (five). The hook
// keeps the *Call past its call, which a behaviour must not do, only to
// look at it.
func TestReturnedCallIsZero(t *testing.T) {
	t.Parallel()
	env := NewEnv(mixApp())
	var kept *Call
	env.SetHooks(Hooks{CallInterface: func(_ *Instance, _ *Interface, call *Call,
		next func(*Call) ([]idl.Value, error)) ([]idl.Value, error) {
		kept = call
		return next(call)
	}})
	inst, _ := env.CreateInstance(nil, "CLSID_Mix")
	sink := env.MustQuery(inst, "ISink")
	for _, c := range []struct {
		method string
		args   []idl.Value
	}{
		{"Put", []idl.Value{idl.Int32(7)}},
		{"Flush", nil},
		{"Put5", []idl.Value{idl.Int32(1), idl.Int32(2), idl.Int32(3), idl.Int32(4), idl.String("five")}},
		{"Put", []idl.Value{idl.Int32(8)}},
	} {
		kept = nil
		if _, err := env.Call(nil, sink, c.method, c.args...); err != nil {
			t.Fatal(err)
		}
		if kept == nil || !reflect.ValueOf(*kept).IsZero() {
			t.Errorf("%s: Call after its call returned = %+v, want zero", c.method, kept)
		}
	}
}

// TestQueryAllocs guards the handle of a class's first interface: it lives
// in the instance, so the first Query of a fresh instance allocates
// nothing, and a second query for it returns the same handle. Any other
// IID gets a handle of its own. Not parallel, so no other test's
// allocations are counted.
//
//lint:allow paralleltest allocation counts are process-wide
func TestQueryAllocs(t *testing.T) {
	env := NewEnv(mixApp())
	insts := make([]*Instance, 101) // AllocsPerRun makes one warm-up run
	for i := range insts {
		insts[i], _ = env.CreateInstance(nil, "CLSID_Mix")
	}
	n := 0
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = env.Query(insts[n], "IMix")
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("first Query allocates %v objects, want 0", allocs)
	}
	inst := insts[0]
	first, again := env.MustQuery(inst, "IMix"), env.MustQuery(inst, "IMix")
	if first != again || first.IID() != "IMix" || first.Instance() != inst || first.InstanceID() != inst.ID {
		t.Errorf("first-interface handles %p %p, iid %q, instance %d", first, again, first.IID(), first.InstanceID())
	}
	if sink := env.MustQuery(inst, "ISink"); sink == first || sink.IID() != "ISink" || sink.Instance() != inst {
		t.Errorf("ISink handle = %p (iid %q), first handle %p", sink, sink.IID(), first)
	}
}

// TestActivationAllocs guards the activation path: through a hooked
// CreateInstance, an instantiation allocates what the class's constructor
// allocates, nothing else — the Instance lives in the Env's chunk table,
// whose chunks double, and the hook's next is bound once per Env, not
// built per request. Not parallel, so no other test's allocations are
// counted.
//
//lint:allow paralleltest allocation counts are process-wide
func TestActivationAllocs(t *testing.T) {
	app := testApp()
	class := app.Classes.Lookup("CLSID_Counter")
	ctor := testing.AllocsPerRun(100, func() { class.New() })
	env := NewEnv(app)
	env.SetHooks(Hooks{CreateInstance: func(_ *Instance, class *Class,
		next func(*Class, Machine) *Instance) (*Instance, error) {
		return next(class, Server), nil
	}})
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = env.CreateInstance(nil, "CLSID_Counter")
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > ctor {
		t.Errorf("hooked CreateInstance allocates %v objects, want <= %v (the constructor's)", allocs, ctor)
	}
}
