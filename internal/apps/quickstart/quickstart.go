// Package quickstart assembles the three-component demonstration
// application the quick-start example (and the coverage gate in CI) runs
// the pipeline on: a GUI viewer, a cruncher, and a server-side data
// store. The cruncher reads a lot and reports a little — exactly the
// component Coign should move to the server.
//
// The class metadata deliberately declares one activation site the
// default scenario never exercises: Crunch can create a View for a
// print-preview path that no training scenario drives. The reachability
// coverage report (coign report -only coverage) flags the Crunch -> View
// site and ICC edge as statically reachable but unprofiled.
package quickstart

import (
	"fmt"
	"time"

	"repro/internal/com"
	"repro/internal/idl"
)

// New builds the quickstart application.
func New() *com.App {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IStore", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Read", Params: []idl.ParamDesc{{Name: "n", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TBytes},
		},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "ICrunch", Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Summarize", Params: []idl.ParamDesc{{Name: "blocks", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TString},
		},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IView", Remotable: false, // paints through an opaque device context
		Methods: []idl.MethodDesc{
			{Name: "Show", Params: []idl.ParamDesc{
				{Name: "text", Dir: idl.In, Type: idl.TString},
				{Name: "dc", Dir: idl.In, Type: idl.TOpaque},
			}, Result: idl.TVoid},
		},
	})

	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_Store", Name: "Store", Interfaces: []string{"IStore"},
		APIs: []string{com.APIFileRead}, Home: com.Server, Infrastructure: true,
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				c.Compute(time.Millisecond)
				return []idl.Value{idl.Zeros(int(c.Args[0].AsInt()))}, nil
			})
		},
	})
	classes.Register(&com.Class{
		ID: "CLSID_Crunch", Name: "Crunch", Interfaces: []string{"ICrunch"},
		// Crunch instantiates its Store on demand, and on the (never
		// profiled) print-preview path it could also instantiate a View.
		Activations: []com.CLSID{"CLSID_Store", "CLSID_View"},
		New: func() com.Object {
			var st *com.Interface
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				if st == nil {
					inst, err := c.Create("CLSID_Store")
					if err != nil {
						return nil, err
					}
					if st, err = c.Env.Query(inst, "IStore"); err != nil {
						return nil, err
					}
				}
				total := 0
				for i := int64(0); i < c.Args[0].AsInt(); i++ {
					out, err := c.Invoke(st, "Read", idl.Int32(64<<10))
					if err != nil {
						return nil, err
					}
					total += len(out[0].Bytes)
					c.Compute(5 * time.Millisecond)
				}
				return []idl.Value{idl.String(fmt.Sprintf("crunched %d bytes", total))}, nil
			})
		},
	})
	classes.Register(&com.Class{
		ID: "CLSID_View", Name: "View", Interfaces: []string{"IView"},
		APIs: []string{com.APIGdiPaint, com.APIUserWindow},
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				c.Compute(time.Millisecond)
				return []idl.Value{}, nil
			})
		},
	})

	app := &com.App{
		Name: "quickstart", Classes: classes, Interfaces: ifaces,
		MainActivations: []com.CLSID{"CLSID_Crunch", "CLSID_View"},
	}
	app.Main = func(env *com.Env, scenario string, seed int64) error {
		crunch, err := env.CreateInstance(nil, "CLSID_Crunch")
		if err != nil {
			return err
		}
		view, err := env.CreateInstance(nil, "CLSID_View")
		if err != nil {
			return err
		}
		citf, err := env.Query(crunch, "ICrunch")
		if err != nil {
			return err
		}
		out, err := env.Call(nil, citf, "Summarize", idl.Int32(40))
		if err != nil {
			return err
		}
		vitf, err := env.Query(view, "IView")
		if err != nil {
			return err
		}
		_, err = env.Call(nil, vitf, "Show", out[0], idl.OpaquePtr("hdc"))
		return err
	}
	return app
}
