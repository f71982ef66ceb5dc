package com_test

import (
	"fmt"

	"repro/internal/com"
	"repro/internal/idl"
)

// A minimal component application: one class, one interface, one call —
// everything the Coign runtime needs to interpose on.
func Example() {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IGreeter", Remotable: true,
		Methods: []idl.MethodDesc{{
			Name:   "Greet",
			Params: []idl.ParamDesc{{Name: "who", Dir: idl.In, Type: idl.TString}},
			Result: idl.TString,
		}},
	})
	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_Greeter", Name: "Greeter", Interfaces: []string{"IGreeter"},
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				return []idl.Value{idl.String("hello, " + c.Args[0].AsString())}, nil
			})
		},
	})
	app := &com.App{Name: "demo", Classes: classes, Interfaces: ifaces}

	env := com.NewEnv(app)
	inst, _ := env.CreateInstance(nil, "CLSID_Greeter")
	itf, _ := env.Query(inst, "IGreeter")
	out, _ := env.Call(nil, itf, "Greet", idl.String("coign"))
	fmt.Println(out[0].AsString())
	// Output:
	// hello, coign
}

// Interception hooks are what the runtime executive attaches to: every
// instantiation and every interface call can be observed and redirected.
func ExampleEnv_SetHooks() {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{IID: "IWork", Remotable: true,
		Methods: []idl.MethodDesc{{Name: "Do", Result: idl.TInt32}}})
	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_W", Name: "W", Interfaces: []string{"IWork"},
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				return []idl.Value{idl.Int32(42)}, nil
			})
		},
	})
	env := com.NewEnv(&com.App{Name: "d", Classes: classes, Interfaces: ifaces})
	env.SetHooks(com.Hooks{
		CreateInstance: func(creator *com.Instance, class *com.Class,
			next func(*com.Class, com.Machine) *com.Instance) (*com.Instance, error) {
			fmt.Println("trapped instantiation of", class.Name)
			return next(class, com.Server), nil // relocate to the server
		},
		CallInterface: func(caller *com.Instance, target *com.Interface, call *com.Call,
			next func(*com.Call) ([]idl.Value, error)) ([]idl.Value, error) {
			fmt.Println("trapped call", target.IID()+"."+call.Method)
			return next(call)
		},
	})
	inst, _ := env.CreateInstance(nil, "CLSID_W")
	itf, _ := env.Query(inst, "IWork")
	env.Call(nil, itf, "Do")
	fmt.Println("placed on", inst.Machine)
	// Output:
	// trapped instantiation of W
	// trapped call IWork.Do
	// placed on server
}
