package octarine

import (
	"fmt"

	"repro/internal/com"
	"repro/internal/idl"
)

// Creation-path diversity. Real applications do not instantiate their
// components from uniform loops: every menu is built by its own handler,
// every dialog by its own routine, text pages by frame chaining. These
// distinct code paths are precisely what gives the call-chain classifiers
// their granularity edge over the static-type classifier (paper Table 2:
// 80 ST classifications versus 1434 IFCB classifications), and the
// same-instance method chains (bar.Populate → bar.BuildFileMenu) are what
// separates IFCB from EPCB, which collapses them.

// Craft interface IDs.
const (
	iFactory    = "IWidgetFactory"
	iMenuCraft  = "IMenuCraft"
	iMenuAdd    = "IMenuEntries"
	iFrameCraft = "IFrameCraft"
	iPage       = "IPageFrame"
	iDocMgr     = "IDocManager"
)

// menuBuildMethods are the menu bar's per-menu construction handlers.
var menuBuildMethods = []string{
	"BuildFileMenu", "BuildEditMenu", "BuildViewMenu", "BuildInsertMenu",
	"BuildFormatMenu", "BuildToolsMenu", "BuildTableMenu", "BuildWindowMenu",
	"BuildHelpMenu",
}

// menuItemMethods are a menu's per-entry construction handlers.
var menuItemMethods = []string{
	"AddNew", "AddOpen", "AddSave", "AddClose", "AddCut", "AddCopy",
	"AddPaste", "AddUndo", "AddRedo", "AddFind", "AddReplace", "AddZoom",
	"AddAbout", "AddExit",
}

// frameCraftMethods are the frame's per-fixture construction handlers:
// four toolbars, two palettes, six dialogs.
var frameCraftMethods = []string{
	"BuildStdToolbar", "BuildFmtToolbar", "BuildDrawToolbar", "BuildTableToolbar",
	"BuildColorPalette", "BuildBrushPalette",
	"BuildOpenDialog", "BuildSaveDialog", "BuildPrintDialog",
	"BuildStyleDialog", "BuildSpellDialog", "BuildPrefsDialog",
}

// frameCraftTargets maps each frame craft method to the container class it
// constructs.
var frameCraftTargets = map[string]com.CLSID{
	"BuildStdToolbar":   "CLSID_Toolbar",
	"BuildFmtToolbar":   "CLSID_Toolbar",
	"BuildDrawToolbar":  "CLSID_Toolbar",
	"BuildTableToolbar": "CLSID_Toolbar",
	"BuildColorPalette": "CLSID_Palette",
	"BuildBrushPalette": "CLSID_Palette",
	"BuildOpenDialog":   "CLSID_DialogPane",
	"BuildSaveDialog":   "CLSID_DialogPane",
	"BuildPrintDialog":  "CLSID_DialogPane",
	"BuildStyleDialog":  "CLSID_DialogPane",
	"BuildSpellDialog":  "CLSID_DialogPane",
	"BuildPrefsDialog":  "CLSID_DialogPane",
}

// docOpenMethods map the document manager's per-type open handlers to
// reader document kinds.
var docOpenMethods = map[string]int{
	"OpenTemplate": kindTemplate,
	"OpenText":     kindText,
	"OpenTable":    kindTable,
	"OpenMusic":    kindMusic,
	"OpenMixed":    kindMixed,
}

func intMethods(names []string) []idl.MethodDesc {
	out := make([]idl.MethodDesc, len(names))
	for i, n := range names {
		out[i] = idl.MethodDesc{Name: n, Result: idl.TInt32}
	}
	return out
}

// registerCraftInterfaces declares the construction-handler interfaces.
func registerCraftInterfaces(b *builder) {
	b.iface(&idl.InterfaceDesc{
		IID: iMenuCraft, Name: iMenuCraft, Remotable: true,
		Methods: intMethods(menuBuildMethods),
	})
	b.iface(&idl.InterfaceDesc{
		IID: iMenuAdd, Name: iMenuAdd, Remotable: true,
		Methods: intMethods(menuItemMethods),
	})
	b.iface(&idl.InterfaceDesc{
		IID: iFrameCraft, Name: iFrameCraft, Remotable: true,
		Methods: intMethods(frameCraftMethods),
	})
	pageParams := []idl.ParamDesc{
		{Name: "props", Dir: idl.In, Type: idl.InterfaceType(iProps)},
		{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
		{Name: "text", Dir: idl.In, Type: idl.TBytes},
	}
	b.iface(&idl.InterfaceDesc{
		IID: iPage, Name: iPage, Remotable: true,
		Methods: []idl.MethodDesc{
			{
				Name: "Continue",
				Params: []idl.ParamDesc{
					{Name: "reader", Dir: idl.In, Type: idl.InterfaceType(iReader)},
					{Name: "props", Dir: idl.In, Type: idl.InterfaceType(iProps)},
					{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
					{Name: "page", Dir: idl.In, Type: idl.TInt32},
					{Name: "lastPage", Dir: idl.In, Type: idl.TInt32},
				},
				Result: idl.TInt32,
			},
			{Name: "AddBody", Params: pageParams, Result: idl.TInt32},
			{Name: "AddHeading", Params: pageParams, Result: idl.TInt32},
		},
	})
	var openMethods []idl.MethodDesc
	for _, name := range []string{"OpenTemplate", "OpenText", "OpenTable", "OpenMusic", "OpenMixed"} {
		openMethods = append(openMethods, idl.MethodDesc{
			Name: name,
			Params: []idl.ParamDesc{
				{Name: "pages", Dir: idl.In, Type: idl.TInt32},
				{Name: "frame", Dir: idl.In, Type: idl.InterfaceType(iFrame)},
			},
			Result: idl.InterfaceType(iReader),
		})
	}
	b.iface(&idl.InterfaceDesc{
		IID: iDocMgr, Name: iDocMgr, Remotable: true,
		Methods: openMethods,
	})
}

// newMenuBar builds its menus through one handler per menu, so every menu
// (and every item under it) gets a distinct call-chain context.
func newMenuBar() com.Object {
	var factory *com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Render":
			c.Compute(costWidget)
			return []idl.Value{}, nil
		case "Ping":
			return []idl.Value{idl.Int32(int32(c.Args[0].AsInt()))}, nil
		case "Populate":
			return []idl.Value{idl.Int32(0)}, nil
		case "PopulateVia":
			factory = c.Args[0].Iface.(*com.Interface)
			self, err := c.Env.Query(c.Self, iMenuCraft)
			if err != nil {
				return nil, err
			}
			total := 0
			for _, m := range menuBuildMethods {
				out, err := c.Invoke(self, m)
				if err != nil {
					return nil, err
				}
				total += int(out[0].AsInt())
			}
			return []idl.Value{idl.Int32(int32(total))}, nil
		default:
			for _, m := range menuBuildMethods {
				if c.Method != m {
					continue
				}
				if factory == nil {
					return nil, fmt.Errorf("MenuBar: %s before PopulateVia", m)
				}
				menu, err := c.Create("CLSID_Menu")
				if err != nil {
					return nil, err
				}
				w, err := c.Env.Query(menu, iWidget)
				if err != nil {
					return nil, err
				}
				if _, err := c.Invoke(w, "Render", idl.OpaquePtr("hdc")); err != nil {
					return nil, err
				}
				mc, err := c.Env.Query(menu, iContain)
				if err != nil {
					return nil, err
				}
				out, err := c.Invoke(mc, "PopulateVia", idl.IfacePtr(factory))
				if err != nil {
					return nil, err
				}
				return []idl.Value{idl.Int32(int32(1 + out[0].AsInt()))}, nil
			}
			return nil, fmt.Errorf("MenuBar: bad method %s", c.Method)
		}
	})
}

// newMenu populates itself one entry handler at a time.
func newMenu() com.Object {
	var factory *com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Render":
			c.Compute(costWidget)
			return []idl.Value{}, nil
		case "Ping":
			return []idl.Value{idl.Int32(int32(c.Args[0].AsInt()))}, nil
		case "Populate":
			return []idl.Value{idl.Int32(0)}, nil
		case "PopulateVia":
			factory = c.Args[0].Iface.(*com.Interface)
			self, err := c.Env.Query(c.Self, iMenuAdd)
			if err != nil {
				return nil, err
			}
			total := 0
			for _, m := range menuItemMethods {
				out, err := c.Invoke(self, m)
				if err != nil {
					return nil, err
				}
				total += int(out[0].AsInt())
			}
			return []idl.Value{idl.Int32(int32(total))}, nil
		default:
			for _, m := range menuItemMethods {
				if c.Method != m {
					continue
				}
				if factory == nil {
					return nil, fmt.Errorf("Menu: %s before PopulateVia", m)
				}
				if _, err := c.Invoke(factory, "CreateWidget",
					idl.String("CLSID_MenuItem")); err != nil {
					return nil, err
				}
				return []idl.Value{idl.Int32(1)}, nil
			}
			return nil, fmt.Errorf("Menu: bad method %s", c.Method)
		}
	})
}

// newPageFrame lays out one page's paragraphs and chains to the next page
// frame — text flows chain frames, so each page's components carry a
// lineage-specific call-chain context.
func newPageFrame() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "AddBody", "AddHeading":
			props := c.Args[0].Iface.(*com.Interface)
			canvas := c.Args[1].Iface.(*com.Interface)
			text := c.Args[2]
			para, err := c.Create("CLSID_Paragraph")
			if err != nil {
				return nil, err
			}
			pitf, err := c.Env.Query(para, iPara)
			if err != nil {
				return nil, err
			}
			if _, err := c.Invoke(pitf, "SetText", text); err != nil {
				return nil, err
			}
			if c.Method == "AddHeading" {
				_, err = c.Invoke(pitf, "Format", idl.IfacePtr(props), idl.IfacePtr(canvas))
			} else {
				_, err = c.Invoke(pitf, "FormatBody", idl.IfacePtr(canvas))
			}
			if err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(1)}, nil
		case "Continue":
		default:
			return nil, fmt.Errorf("PageFrame: bad method %s", c.Method)
		}
		reader := c.Args[0].Iface.(*com.Interface)
		props := c.Args[1].Iface.(*com.Interface)
		canvas := c.Args[2].Iface.(*com.Interface)
		page := int(c.Args[3].AsInt())
		last := int(c.Args[4].AsInt())

		if _, err := c.Invoke(reader, "PageContent", idl.Int32(int32(page))); err != nil {
			return nil, err
		}
		// Heading and body paragraphs come from distinct layout paths and
		// behave differently: headings interrogate the properties
		// component, body text renders with cached defaults. The
		// static-type classifier cannot separate them — one of the ways
		// coarse classifiers lose correlation (paper Table 2).
		self, err := c.Env.Query(c.Self, iPage)
		if err != nil {
			return nil, err
		}
		created := 1
		for i := 0; i < parasPerPage; i++ {
			method := "AddBody"
			if i%7 == 0 {
				method = "AddHeading"
			}
			out, err := c.Invoke(self, method,
				idl.IfacePtr(props), idl.IfacePtr(canvas),
				idl.Zeros(pageContentBytes/parasPerPage))
			if err != nil {
				return nil, err
			}
			created += int(out[0].AsInt())
		}
		if page+1 < last {
			next, err := c.Create("CLSID_PageFrame")
			if err != nil {
				return nil, err
			}
			nitf, err := c.Env.Query(next, iPage)
			if err != nil {
				return nil, err
			}
			out, err := c.Invoke(nitf, "Continue",
				idl.IfacePtr(reader), idl.IfacePtr(props), idl.IfacePtr(canvas),
				idl.Int32(int32(page+1)), idl.Int32(int32(last)))
			if err != nil {
				return nil, err
			}
			created += int(out[0].AsInt())
		}
		return []idl.Value{idl.Int32(int32(created))}, nil
	})
}

// newDocManager opens documents through one handler per document type, so
// readers for different document types have distinguishable classifications
// — which is what lets Coign place a table-document reader differently
// from a template reader within one distribution.
func newDocManager() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		kind, ok := docOpenMethods[c.Method]
		if !ok {
			return nil, fmt.Errorf("DocManager: bad method %s", c.Method)
		}
		pages := c.Args[0]
		frame := c.Args[1]
		reader, err := c.Create("CLSID_DocReader")
		if err != nil {
			return nil, err
		}
		ritf, err := c.Env.Query(reader, iReader)
		if err != nil {
			return nil, err
		}
		if _, err := c.Invoke(ritf, "LoadDocument",
			idl.Int32(int32(kind)), pages, frame); err != nil {
			return nil, err
		}
		return []idl.Value{idl.IfacePtr(ritf)}, nil
	})
}
