package octarine

import (
	"fmt"
	"time"

	"repro/internal/com"
	"repro/internal/idl"
)

// builder accumulates an application's classes and interfaces.
type builder struct {
	app     string
	classes *com.ClassRegistry
	ifaces  *idl.Registry
}

func newBuilder(app string) *builder {
	return &builder{
		app:     app,
		classes: com.NewClassRegistry(),
		ifaces:  idl.NewRegistry(),
	}
}

func (b *builder) iface(d *idl.InterfaceDesc) { b.ifaces.Register(d) }

// class registers a component class.
func (b *builder) class(name string, ifaces, apis []string, code int, mk func() com.Object) *com.Class {
	c := &com.Class{
		ID:         com.CLSID("CLSID_" + name),
		Name:       name,
		Interfaces: ifaces,
		APIs:       apis,
		CodeBytes:  code,
		New:        mk,
	}
	b.classes.Register(c)
	return c
}

// Interface IDs.
const (
	iStore   = "IStore"
	iWidget  = "IWidget"
	iContain = "IContainer"
	iCanvas  = "ICanvas"
	iFrame   = "IFrame"
	iReader  = "IReader"
	iProps   = "ITextProps"
	iFlow    = "IFlow"
	iPara    = "IPara"
	iTable   = "ITableModel"
	iCell    = "ICell"
	iNegot   = "INegotiate"
	iPlanner = "IPlanner"
	iMusic   = "IMusicModel"
	iStaff   = "IStaff"
)

// Message sizing constants. These calibrate the reproduction to the
// paper's regime: ~90 KB of raw document per page, a bounded render
// window, and chatty-but-small GUI traffic.
const (
	pageBytes     = 90 << 10 // raw document bytes per page
	styleRunBytes = 24 << 10 // style-run bytes per page fed to ITextProps
	cellBytes     = 4 << 10  // rendered table cell payload
	runQueryBytes = 1536     // negotiation content re-read size
	proposalBytes = 2048     // negotiation proposal payload
	summaryBytes  = 200      // per-page placement summary
	parasPerPage  = 14
	cellsPerPage  = 18
	viewWindowWP  = 8 // text pages actually rendered
	viewWindowTB  = 5 // table pages actually rendered
	templateBytes = 150 << 10
)

// Compute costs (virtual CPU time on the 200 MHz-class reference machine).
const (
	costParsePage  = 90 * time.Millisecond
	costScanPage   = 300 * time.Millisecond // full-table column scan
	costLayoutPara = 25 * time.Millisecond
	costLayoutCell = 60 * time.Millisecond
	costWidget     = 1500 * time.Microsecond
	costNegotiate  = 45 * time.Millisecond
	costProps      = 4 * time.Millisecond
	costMusic      = 8 * time.Millisecond
)

// registerStorage defines the server-side file store: infrastructure with
// a fixed location, the reason data files always live on the server.
func registerStorage(b *builder) {
	b.iface(&idl.InterfaceDesc{
		IID: iStore, Name: iStore, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Open", Params: []idl.ParamDesc{{Name: "name", Dir: idl.In, Type: idl.TString}}, Result: idl.TInt32},
			{Name: "ReadRange", Params: []idl.ParamDesc{
				{Name: "off", Dir: idl.In, Type: idl.TInt32},
				{Name: "n", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.TBytes},
		},
	})
	cls := b.class("FileStore", []string{iStore}, []string{com.APIFileRead, com.APIFileOpen}, 16<<10,
		func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				switch c.Method {
				case "Open":
					c.Compute(2 * time.Millisecond)
					return []idl.Value{idl.Int32(0)}, nil
				case "ReadRange":
					n := int(c.Args[1].AsInt())
					if n < 0 {
						n = 0
					}
					c.Compute(time.Duration(n/4096+1) * 400 * time.Microsecond)
					return []idl.Value{idl.Zeros(n)}, nil
				}
				return nil, fmt.Errorf("FileStore: bad method %s", c.Method)
			})
		})
	cls.Home = com.Server
	cls.Infrastructure = true
}

// GUI interfaces. IWidget.Render passes an opaque device-context handle,
// which makes every interface on which it travels non-remotable — the
// black lines of the paper's distribution figures. Populate asks a widget
// to create its children and returns the number of descendants created;
// only container widgets implement IContainer, whose PopulateVia routes
// child creation through a construction service (keeping the factory
// callback off the leaf widgets keeps the static interface-flow analysis
// from predicting factory edges for every leaf).
func registerGUIInterfaces(b *builder) {
	b.iface(&idl.InterfaceDesc{
		IID: iWidget, Name: iWidget, Remotable: false,
		Methods: []idl.MethodDesc{
			{Name: "Render", Params: []idl.ParamDesc{{Name: "dc", Dir: idl.In, Type: idl.TOpaque}}, Result: idl.TVoid},
			{Name: "Ping", Params: []idl.ParamDesc{{Name: "code", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TInt32},
			{Name: "Populate", Result: idl.TInt32},
		},
	})
	b.iface(&idl.InterfaceDesc{
		IID: iContain, Name: iContain, Remotable: false,
		Methods: []idl.MethodDesc{
			{Name: "PopulateVia", Params: []idl.ParamDesc{
				{Name: "factory", Dir: idl.In, Type: idl.InterfaceType(iFactory)},
			}, Result: idl.TInt32},
		},
	})
	// The canvas is the shared rendering surface the document engines draw
	// on; the frame hands it out through a dedicated interface.
	b.iface(&idl.InterfaceDesc{
		IID: iCanvas, Name: iCanvas, Remotable: false,
		Methods: []idl.MethodDesc{
			{Name: "AcquireDC", Result: idl.TOpaque},
		},
	})
	// The widget factory is the shared construction service every fixture
	// routes child creation through. Because the factory is a singleton,
	// shallow stack walks see only its generic CreateWidget frame and lump
	// creations together; deeper walks recover the requesting fixture —
	// which is why classifier accuracy grows with stack depth (Table 3).
	b.iface(&idl.InterfaceDesc{
		IID: iFactory, Name: iFactory, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "CreateWidget", Params: []idl.ParamDesc{
				{Name: "clsid", Dir: idl.In, Type: idl.TString},
			}, Result: idl.InterfaceType(iWidget)},
			{Name: "Bind", Params: []idl.ParamDesc{
				{Name: "next", Dir: idl.In, Type: idl.InterfaceType(iFactory)},
			}, Result: idl.TInt32},
		},
	})
	b.iface(&idl.InterfaceDesc{
		IID: iFrame, Name: iFrame, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Init", Result: idl.TInt32},
			{Name: "GetCanvas", Result: idl.InterfaceType(iCanvas)},
			{Name: "AddChild", Params: []idl.ParamDesc{{Name: "w", Dir: idl.In, Type: idl.InterfaceType(iWidget)}}, Result: idl.TInt32},
			{Name: "Status", Params: []idl.ParamDesc{{Name: "msg", Dir: idl.In, Type: idl.TString}}, Result: idl.TVoid},
		},
	})
}

// widgetObject is the common leaf-widget behaviour: render to the parent's
// device context, answer pings, create nothing.
func widgetObject() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Render":
			c.Compute(costWidget)
			return []idl.Value{}, nil
		case "Ping":
			c.Compute(costWidget / 4)
			return []idl.Value{idl.Int32(int32(c.Args[0].AsInt()))}, nil
		case "Populate":
			return []idl.Value{idl.Int32(0)}, nil
		case "AcquireDC":
			return []idl.Value{idl.OpaquePtr("hdc")}, nil
		}
		return nil, fmt.Errorf("widget: bad method %s", c.Method)
	})
}

// containerObject creates `count` children of childCLSID on PopulateVia,
// routing each creation through the shared widget factory.
func containerObject(childCLSID com.CLSID, count int) func() com.Object {
	return func() com.Object {
		return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
			switch c.Method {
			case "Render":
				c.Compute(costWidget)
				return []idl.Value{}, nil
			case "Ping":
				c.Compute(costWidget / 4)
				return []idl.Value{idl.Int32(int32(c.Args[0].AsInt()))}, nil
			case "Populate":
				return []idl.Value{idl.Int32(0)}, nil
			case "PopulateVia":
				factory := c.Args[0].Iface.(*com.Interface)
				for i := 0; i < count; i++ {
					if _, err := c.Invoke(factory, "CreateWidget",
						idl.String(string(childCLSID))); err != nil {
						return nil, err
					}
				}
				c.Compute(costWidget)
				return []idl.Value{idl.Int32(int32(count))}, nil
			}
			return nil, fmt.Errorf("container: bad method %s", c.Method)
		})
	}
}

// newWidgetFactory is the shared construction service: create the widget,
// render it, return its interface.
func newWidgetFactory() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "CreateWidget":
			inst, err := c.Create(com.CLSID(c.Args[0].AsString()))
			if err != nil {
				return nil, err
			}
			w, err := c.Env.Query(inst, iWidget)
			if err != nil {
				return nil, err
			}
			if _, err := c.Invoke(w, "Render", idl.OpaquePtr("hdc")); err != nil {
				return nil, err
			}
			c.Compute(costWidget / 4)
			return []idl.Value{idl.IfacePtr(w)}, nil
		case "Bind":
			return []idl.Value{idl.Int32(0)}, nil
		}
		return nil, fmt.Errorf("WidgetFactory: bad method %s", c.Method)
	})
}

// newControlKit is a second generic construction layer (dialog controls
// route dialog → kit → factory), pushing their discriminating context one
// stack frame deeper.
func newControlKit() com.Object {
	var next *com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Bind":
			next = c.Args[0].Iface.(*com.Interface)
			return []idl.Value{idl.Int32(1)}, nil
		case "CreateWidget":
			if next == nil {
				return nil, fmt.Errorf("ControlKit: CreateWidget before Bind")
			}
			return c.Invoke(next, "CreateWidget", c.Args[0])
		}
		return nil, fmt.Errorf("ControlKit: bad method %s", c.Method)
	})
}

var guiAPIs = []string{com.APIUserWindow, com.APIUserInput, com.APIGdiPaint}

var guiLeafSingles = []string{
	"StatusBar", "Ruler", "ScrollBar", "FontList", "ColorWell", "Canvas",
}

// registerGUI defines Octarine's structured GUI classes.
func registerGUI(b *builder) {
	registerGUIInterfaces(b)
	registerCraftInterfaces(b)

	// Containers and their broods. The menu system builds through
	// per-menu and per-entry handlers (see craft.go) so classifiers see
	// distinct call chains.
	b.class("MenuBar", []string{iWidget, iContain, iMenuCraft}, guiAPIs, 24<<10, newMenuBar)
	b.class("Menu", []string{iWidget, iContain, iMenuAdd}, guiAPIs, 12<<10, newMenu)
	b.class("MenuItem", []string{iWidget}, guiAPIs, 3<<10, widgetObject)
	b.class("Toolbar", []string{iWidget, iContain}, guiAPIs, 24<<10, containerObject("CLSID_ToolButton", 18))
	b.class("ToolButton", []string{iWidget}, guiAPIs, 4<<10, widgetObject)
	b.class("Palette", []string{iWidget, iContain}, guiAPIs, 16<<10, containerObject("CLSID_Swatch", 10))
	b.class("Swatch", []string{iWidget}, guiAPIs, 2<<10, widgetObject)
	b.class("DialogPane", []string{iWidget, iContain}, guiAPIs, 20<<10, containerObject("CLSID_DialogCtl", 8))
	b.class("DialogCtl", []string{iWidget}, guiAPIs, 5<<10, widgetObject)
	b.class("WidgetFactory", []string{iFactory}, guiAPIs, 18<<10, newWidgetFactory)
	b.class("ControlKit", []string{iFactory}, guiAPIs, 12<<10, newControlKit)
	for _, leaf := range guiLeafSingles {
		ifaces := []string{iWidget}
		if leaf == "Canvas" {
			ifaces = []string{iWidget, iCanvas}
		}
		b.class(leaf, ifaces, guiAPIs, 8<<10, widgetObject)
	}

	// AppFrame builds the whole display swarm in its Init method, routing
	// each fixture through its own construction handler.
	b.class("AppFrame", []string{iFrame, iWidget, iFrameCraft}, guiAPIs, 96<<10, func() com.Object {
		children := 0
		var factory, kit, canvas *com.Interface
		return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
			switch c.Method {
			case "Init":
				c.Compute(5 * time.Millisecond)
				// The construction services come first: the shared widget
				// factory and the dialog control kit layered on top of it.
				f, err := c.Create("CLSID_WidgetFactory")
				if err != nil {
					return nil, err
				}
				if factory, err = c.Env.Query(f, iFactory); err != nil {
					return nil, err
				}
				k, err := c.Create("CLSID_ControlKit")
				if err != nil {
					return nil, err
				}
				if kit, err = c.Env.Query(k, iFactory); err != nil {
					return nil, err
				}
				if _, err := c.Invoke(kit, "Bind", idl.IfacePtr(factory)); err != nil {
					return nil, err
				}
				n, cv, err := buildFrameContents(c, factory)
				if err != nil {
					return nil, err
				}
				canvas = cv
				children = n + 2
				return []idl.Value{idl.Int32(int32(n))}, nil
			case "GetCanvas":
				if canvas == nil {
					return nil, fmt.Errorf("AppFrame: GetCanvas before Init")
				}
				return []idl.Value{idl.IfacePtr(canvas)}, nil
			case "AddChild":
				children++
				c.Compute(costWidget / 8)
				return []idl.Value{idl.Int32(int32(children))}, nil
			case "Status":
				c.Compute(costWidget / 8)
				return []idl.Value{}, nil
			case "Render":
				c.Compute(costWidget)
				return []idl.Value{}, nil
			case "Ping", "Populate":
				return []idl.Value{idl.Int32(0)}, nil
			}
			if clsid, ok := frameCraftTargets[c.Method]; ok {
				// Dialogs assemble their controls through the control kit;
				// toolbars and palettes go straight to the factory.
				via := factory
				if clsid == "CLSID_DialogPane" {
					via = kit
				}
				n, err := craftFixture(c, clsid, via)
				if err != nil {
					return nil, err
				}
				children += n
				return []idl.Value{idl.Int32(int32(n))}, nil
			}
			return nil, fmt.Errorf("AppFrame: bad method %s", c.Method)
		})
	})
}

// chromeClassCount decorative widget classes pad Octarine's class count to
// the paper's ~150 and its GUI to hundreds of instances.
const chromeClassCount = 60

func registerChrome(b *builder) {
	for i := 0; i < chromeClassCount; i++ {
		b.class(fmt.Sprintf("Chrome%02d", i), []string{iWidget}, guiAPIs, 2<<10, widgetObject)
	}
}

// buildFrameContents is AppFrame.Init: create the menu system, toolbars,
// palettes, dialogs, singleton widgets, and chrome. Returns the number of
// widgets created (excluding the frame itself and construction services)
// and the canvas handle the frame hands out through GetCanvas.
func buildFrameContents(c *com.Call, factory *com.Interface) (int, *com.Interface, error) {
	total := 0
	var canvas *com.Interface
	mk := func(clsid com.CLSID) error {
		inst, err := c.Create(clsid)
		if err != nil {
			return err
		}
		total++
		w, err := c.Env.Query(inst, iWidget)
		if err != nil {
			return err
		}
		if clsid == "CLSID_Canvas" {
			if canvas, err = c.Env.Query(inst, iCanvas); err != nil {
				return err
			}
		}
		if _, err := c.Invoke(w, "Render", idl.OpaquePtr("hdc")); err != nil {
			return err
		}
		out, err := c.Invoke(w, "Populate")
		if err != nil {
			return err
		}
		total += int(out[0].AsInt())
		return nil
	}

	// The menu bar builds its menus through per-menu handlers; the menus
	// create their items through the shared factory.
	bar, err := c.Create("CLSID_MenuBar")
	if err != nil {
		return 0, nil, err
	}
	total++
	barW, err := c.Env.Query(bar, iWidget)
	if err != nil {
		return 0, nil, err
	}
	if _, err := c.Invoke(barW, "Render", idl.OpaquePtr("hdc")); err != nil {
		return 0, nil, err
	}
	barC, err := c.Env.Query(bar, iContain)
	if err != nil {
		return 0, nil, err
	}
	out, err := c.Invoke(barC, "PopulateVia", idl.IfacePtr(factory))
	if err != nil {
		return 0, nil, err
	}
	total += int(out[0].AsInt()) // 9 + 126
	// Toolbars, palettes, and dialogs each come from their own
	// construction handler on the frame (4*(1+18) + 2*(1+10) + 6*(1+8)).
	self, err := c.Env.Query(c.Self, iFrameCraft)
	if err != nil {
		return 0, nil, err
	}
	for _, m := range frameCraftMethods {
		out, err := c.Invoke(self, m)
		if err != nil {
			return 0, nil, err
		}
		total += int(out[0].AsInt())
	}
	for _, leaf := range guiLeafSingles {
		n := 1
		switch leaf {
		case "Ruler", "ScrollBar":
			n = 2
		case "ColorWell":
			n = 15
		}
		for i := 0; i < n; i++ {
			if err := mk(com.CLSID("CLSID_" + leaf)); err != nil {
				return 0, nil, err
			}
		}
	}
	for i := 0; i < chromeClassCount; i++ {
		if err := mk(com.CLSID(fmt.Sprintf("CLSID_Chrome%02d", i))); err != nil {
			return 0, nil, err
		}
	}
	// One chrome class gets a second instance to fill out the swarm.
	for i := 0; i < 1; i++ {
		if err := mk(com.CLSID(fmt.Sprintf("CLSID_Chrome%02d", i))); err != nil {
			return 0, nil, err
		}
	}
	return total, canvas, nil
}

// craftFixture builds one frame fixture: create, render, populate its
// children through the given construction service.
func craftFixture(c *com.Call, clsid com.CLSID, via *com.Interface) (int, error) {
	inst, err := c.Create(clsid)
	if err != nil {
		return 0, err
	}
	w, err := c.Env.Query(inst, iWidget)
	if err != nil {
		return 0, err
	}
	if _, err := c.Invoke(w, "Render", idl.OpaquePtr("hdc")); err != nil {
		return 0, err
	}
	cn, err := c.Env.Query(inst, iContain)
	if err != nil {
		return 0, err
	}
	out, err := c.Invoke(cn, "PopulateVia", idl.IfacePtr(via))
	if err != nil {
		return 0, err
	}
	return 1 + int(out[0].AsInt()), nil
}

// buildGUI creates the application frame and populates the display.
func (s *session) buildGUI() error {
	frame, err := s.create("CLSID_AppFrame")
	if err != nil {
		return err
	}
	s.frame = frame
	s.frameCtl, err = s.env.Query(frame, iFrame)
	if err != nil {
		return err
	}
	if _, err := s.call(s.frameCtl, "Init"); err != nil {
		return err
	}
	// The frame hands out the shared rendering canvas; the status bar is
	// located by instance enumeration (it is never called from here).
	out, err := s.call(s.frameCtl, "GetCanvas")
	if err != nil {
		return err
	}
	cv := out[0].Iface.(*com.Interface)
	s.canvasRaw = cv.Instance()
	s.canvas, err = s.env.Query(s.canvasRaw, iWidget)
	if err != nil {
		return err
	}
	for _, in := range s.env.Instances() {
		if in.Class.Name == "StatusBar" {
			s.statusbar, err = s.env.Query(in, iWidget)
			if err != nil {
				return err
			}
		}
	}
	if s.canvas == nil || s.statusbar == nil {
		return fmt.Errorf("octarine: GUI did not produce canvas and status bar")
	}
	return nil
}
