package com_test

import (
	"fmt"
	"testing"

	"repro/internal/caching"
	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/rte"
)

// nestedApp builds three levels of re-entrant calls: Outer.Run (client)
// calls Middle.Run (server) twice, and each Middle.Run calls Inner.Get
// (client) twice. Inner.Get is Cacheable, so under a cache only the first
// of the four identical Get calls reaches the component. Every level
// checks, after each nested call returns, that its own arguments are
// intact.
func nestedApp(innerCalls *int) *com.App {
	ifaces := idl.NewRegistry()
	for _, iid := range []string{"IOuter", "IMiddle"} {
		ifaces.Register(&idl.InterfaceDesc{
			IID: iid, Remotable: true,
			Methods: []idl.MethodDesc{{Name: "Run", Params: []idl.ParamDesc{
				{Name: "n", Dir: idl.In, Type: idl.TInt32},
				{Name: "s", Dir: idl.In, Type: idl.TString},
				{Name: "p", Dir: idl.In, Type: idl.InterfaceType("IInner")},
			}, Result: idl.TInt32}},
		})
	}
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IInner", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Get", Cacheable: true, Params: []idl.ParamDesc{
			{Name: "n", Dir: idl.In, Type: idl.TInt32},
			{Name: "s", Dir: idl.In, Type: idl.TString},
		}, Result: idl.TInt32}},
	})
	// keeps reports whether c still carries the arguments n, s, p its
	// caller passed.
	keeps := func(c *com.Call, n int64, s string, p *com.Interface) error {
		if len(c.Args) != 3 || c.Args[0].AsInt() != n || c.Args[1].Str != s || c.Args[2].Iface != p {
			return fmt.Errorf("%s.%s args = %+v, want (%d, %q, %p)", c.IID, c.Method, c.Args, n, s, p)
		}
		return nil
	}
	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_Inner", Name: "Inner", Interfaces: []string{"IInner"},
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				*innerCalls++
				return []idl.Value{idl.Int32(int32(c.Args[0].AsInt() * 10))}, nil
			})
		},
	})
	classes.Register(&com.Class{
		ID: "CLSID_Middle", Name: "Middle", Interfaces: []string{"IMiddle"}, Home: com.Server,
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				inner, ok := c.Args[2].Iface.(*com.Interface)
				if !ok {
					return nil, fmt.Errorf("Middle.Run: arg 2 is %T", c.Args[2].Iface)
				}
				for range 2 {
					out, err := c.Invoke(inner, "Get", idl.Int32(3), idl.String("inner"))
					if err != nil {
						return nil, err
					}
					if out[0].AsInt() != 30 {
						return nil, fmt.Errorf("Get returned %d, want 30", out[0].AsInt())
					}
					if err := keeps(c, 2, "middle", inner); err != nil {
						return nil, err
					}
				}
				return []idl.Value{idl.Int32(2)}, nil
			})
		},
	})
	classes.Register(&com.Class{
		ID: "CLSID_Outer", Name: "Outer", Interfaces: []string{"IOuter"},
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				inner, ok := c.Args[2].Iface.(*com.Interface)
				if !ok {
					return nil, fmt.Errorf("Outer.Run: arg 2 is %T", c.Args[2].Iface)
				}
				mid, err := c.Create("CLSID_Middle")
				if err != nil {
					return nil, err
				}
				mitf := c.Env.MustQuery(mid, "IMiddle")
				for range 2 {
					if _, err := c.Invoke(mitf, "Run", idl.Int32(2), idl.String("middle"), idl.IfacePtr(inner)); err != nil {
						return nil, err
					}
					if err := keeps(c, 1, "outer", inner); err != nil {
						return nil, err
					}
				}
				return []idl.Value{idl.Int32(1)}, nil
			})
		},
	})
	return &com.App{Name: "nested", Classes: classes, Interfaces: ifaces}
}

type nullComm struct{}

func (nullComm) RemoteCall(_, _ com.Machine, _, _ int) {}

// TestNestedCallsKeepTheirArgs drives recycled Calls through three levels
// of re-entrant calls under the RTE with a cache. A Call given back
// before its call returns would hand its argument storage to a nested
// call, and a cache keyed on reused arguments would miss or answer the
// wrong call.
func TestNestedCallsKeepTheirArgs(t *testing.T) {
	t.Parallel()
	innerCalls := 0
	env := com.NewEnv(nestedApp(&innerCalls))
	cache := caching.New()
	r, err := rte.Attach(env, rte.Options{
		Table: classify.NewTable(classify.New(classify.IFCB, 0)),
		Placer: func(_ string, cl *com.Class, _ com.Machine) com.Machine {
			return cl.Home
		},
		Comm:  nullComm{},
		Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.BeginRun("nested")
	outer, _ := env.CreateInstance(nil, "CLSID_Outer")
	inner, _ := env.CreateInstance(nil, "CLSID_Inner")
	iitf := env.MustQuery(inner, "IInner")
	args := []idl.Value{idl.Int32(1), idl.String("outer"), idl.IfacePtr(iitf)}
	out, err := env.Call(nil, env.MustQuery(outer, "IOuter"), "Run", args...)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].AsInt() != 1 {
		t.Errorf("Outer.Run returned %+v", out)
	}
	if args[0].AsInt() != 1 || args[1].Str != "outer" || args[2].Iface != iitf {
		t.Errorf("caller's argument slice changed: %+v", args)
	}
	if innerCalls != 1 || cache.Hits() != 3 {
		t.Errorf("Inner.Get ran %d times with %d cache hits, want 1 and 3", innerCalls, cache.Hits())
	}
	if r.Calls() != 7 {
		t.Errorf("trapped %d calls, want 7", r.Calls())
	}
}
