// Package photodraw reconstructs Microsoft PhotoDraw 2000 from the
// paper's application suite: a consumer image-composition application of
// roughly 112 COM component classes in 1.8 million lines of C++.
//
// The properties the Coign pipeline sees, reproduced here:
//
//   - sprite caches manage the pixels of hierarchical subsets of the
//     composition; most of their data moves through shared-memory regions
//     whose pointers pass opaquely through non-distributable interfaces,
//     welding the sprite mesh to the client-side UI (the ~50 black
//     interfaces of paper Figure 4);
//   - the composition reader streams the document from server storage and
//     fans it out: bulk pixel streams to the sprite caches (which must
//     reach the display no matter what) and property blobs to seven
//     high-level property-set components whose input sets exceed their
//     output sets — exactly the eight components Coign places on the
//     server (reader + 7 property sets, Figure 4);
//   - because the pixel bulk crosses the network in every distribution,
//     savings are modest (5–32%, Table 4), largest for vector-heavy line
//     drawings (p_oldcur) and smallest for new-document scenarios.
package photodraw

import (
	"fmt"
	"time"

	"repro/internal/com"
	"repro/internal/idl"
)

// Scenario names (paper Table 1).
const (
	ScenNewDoc = "p_newdoc"
	ScenNewMsr = "p_newmsr"
	ScenOldCur = "p_oldcur"
	ScenOldMsr = "p_oldmsr"
	ScenOffCur = "p_offcur"
	ScenOffMsr = "p_offmsr"
	ScenBigone = "p_bigone"
)

// Scenarios lists PhotoDraw's profiling scenarios in Table 1 order.
func Scenarios() []string {
	return []string{ScenNewDoc, ScenNewMsr, ScenOldCur, ScenOldMsr,
		ScenOffCur, ScenOffMsr, ScenBigone}
}

// ScenariosWithoutBigone lists the classifier-training scenarios.
func ScenariosWithoutBigone() []string {
	all := Scenarios()
	return all[:len(all)-1]
}

// Interface IDs.
const (
	iStore  = "IImageStore"
	iUI     = "IUIElement"
	iFrame  = "IStudioFrame"
	iReader = "ICompositionReader"
	iSprite = "ISpriteCache"
	iPixels = "IPixelSink"
	iProps  = "IPropertySet"
	iXform  = "ITransform"
)

// Geometry and sizing. A composition document splits into pixel tiles
// (bulk, must reach the display) and property streams (distilled
// server-side when the reader moves).
const (
	tileBytes      = 48 << 10 // one sprite tile of pixels
	propBlobBytes  = 72 << 10 // property stream per property set
	queryBytes     = 256      // property answer to the UI
	spriteFanout   = 4        // sprite-cache tree fanout
	guiQueryRounds = 8        // UI property queries per scenario
)

// Per-scenario document shapes: tiles of pixels and number of property
// blobs per property set.
type docShape struct {
	tiles     int // pixel tiles (each tileBytes)
	propBlobs int // blobs per property set (each propBlobBytes)
	depth     int // sprite tree depth
}

var shapes = map[string]docShape{
	ScenNewDoc: {tiles: 90, propBlobs: 1, depth: 2},  // template + effect gallery resources
	ScenNewMsr: {tiles: 290, propBlobs: 4, depth: 3}, // new composition: big resource pull
	ScenOldCur: {tiles: 36, propBlobs: 2, depth: 2},  // line drawing: vector display lists
	ScenOldMsr: {tiles: 230, propBlobs: 7, depth: 3}, // 3 MB composition + working set
}

// Compute costs.
const (
	costDecodeTile = 120 * time.Millisecond
	costProps      = 30 * time.Millisecond
	costUI         = 2 * time.Millisecond
	costTransform  = 60 * time.Millisecond
)

// propSetClasses are the seven high-level property-set components created
// directly from data in the file.
var propSetClasses = []string{
	"ColorProfile", "ExifData", "LayerIndex", "FontManifest",
	"EffectParams", "ThumbnailSet", "Annotations",
}

var guiAPIs = []string{com.APIUserWindow, com.APIUserInput, com.APIGdiPaint}

// New assembles the PhotoDraw application.
func New() *com.App {
	classes := com.NewClassRegistry()
	ifaces := idl.NewRegistry()

	registerInterfaces(ifaces)
	registerClasses(classes)
	annotateActivations(classes)

	app := &com.App{
		Name:       "photodraw",
		Classes:    classes,
		Interfaces: ifaces,
		Imports:    []string{"photodraw.exe", "pdui.dll", "pdcore.dll", "pdfx.dll"},
		// The main program builds the studio, the root sprite cache, the
		// composition reader, and the two selection transforms.
		MainActivations: []com.CLSID{
			"CLSID_StudioFrame", "CLSID_SpriteCache", "CLSID_CompositionReader",
			"CLSID_Transform00", "CLSID_Transform01",
		},
	}
	app.Main = runScenario
	return app
}

func registerInterfaces(r *idl.Registry) {
	r.Register(&idl.InterfaceDesc{
		IID: iStore, Name: iStore, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Open", Params: []idl.ParamDesc{{Name: "name", Dir: idl.In, Type: idl.TString}}, Result: idl.TInt32},
			{Name: "ReadBlock", Params: []idl.ParamDesc{
				{Name: "off", Dir: idl.In, Type: idl.TInt32},
				{Name: "n", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.TBytes},
		},
	})
	// The sprite-cache interface passes shared-memory region pointers:
	// non-remotable, the black lines of Figure 4.
	r.Register(&idl.InterfaceDesc{
		IID: iSprite, Name: iSprite, Remotable: false,
		Methods: []idl.MethodDesc{
			{Name: "AttachRegion", Params: []idl.ParamDesc{{Name: "shm", Dir: idl.In, Type: idl.TOpaque}}, Result: idl.TInt32},
			{Name: "Composite", Params: []idl.ParamDesc{{Name: "shm", Dir: idl.In, Type: idl.TOpaque}}, Result: idl.TInt32},
			{Name: "Grow", Params: []idl.ParamDesc{{Name: "depth", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TInt32},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iPixels, Name: iPixels, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "PushTile", Params: []idl.ParamDesc{{Name: "pixels", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TInt32},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iUI, Name: iUI, Remotable: false,
		Methods: []idl.MethodDesc{
			{Name: "Paint", Params: []idl.ParamDesc{{Name: "dc", Dir: idl.In, Type: idl.TOpaque}}, Result: idl.TVoid},
			{Name: "Populate", Result: idl.TInt32},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iFrame, Name: iFrame, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Init", Result: idl.TInt32},
			{Name: "Status", Params: []idl.ParamDesc{{Name: "msg", Dir: idl.In, Type: idl.TString}}, Result: idl.TVoid},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iReader, Name: iReader, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Load", Params: []idl.ParamDesc{
				{Name: "tiles", Dir: idl.In, Type: idl.TInt32},
				{Name: "blobs", Dir: idl.In, Type: idl.TInt32},
				{Name: "sink", Dir: idl.In, Type: idl.InterfaceType(iPixels)},
				{Name: "frame", Dir: idl.In, Type: idl.InterfaceType(iFrame)},
			}, Result: idl.TInt32},
			{Name: "PropSet", Params: []idl.ParamDesc{{Name: "idx", Dir: idl.In, Type: idl.TInt32}}, Result: idl.InterfaceType(iProps)},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iProps, Name: iProps, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Ingest", Params: []idl.ParamDesc{{Name: "blob", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TInt32},
			{Name: "Query", Cacheable: true,
				Params: []idl.ParamDesc{{Name: "key", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TBytes},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iXform, Name: iXform, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Apply", Params: []idl.ParamDesc{{Name: "pixels", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TBytes},
		},
	})
}

func registerClasses(reg *com.ClassRegistry) {
	add := func(name string, ifaces, apis []string, code int, mk func() com.Object) *com.Class {
		c := &com.Class{
			ID: com.CLSID("CLSID_" + name), Name: name,
			Interfaces: ifaces, APIs: apis, CodeBytes: code, New: mk,
		}
		reg.Register(c)
		return c
	}

	st := add("ImageStore", []string{iStore}, []string{com.APIFileRead, com.APIFileOpen}, 20<<10, newImageStore)
	st.Home = com.Server
	st.Infrastructure = true

	add("StudioFrame", []string{iFrame, iUI}, guiAPIs, 120<<10, newStudioFrame)
	// UI containers and leaves.
	add("Toolbox", []string{iUI}, guiAPIs, 30<<10, uiContainer("CLSID_ToolIcon", 30))
	add("ToolIcon", []string{iUI}, guiAPIs, 3<<10, uiLeaf)
	add("EffectGallery", []string{iUI}, guiAPIs, 40<<10, uiContainer("CLSID_EffectTile", 24))
	add("EffectTile", []string{iUI}, guiAPIs, 4<<10, uiLeaf)
	add("ColorPicker", []string{iUI}, guiAPIs, 18<<10, uiContainer("CLSID_ColorSwatch", 16))
	add("ColorSwatch", []string{iUI}, guiAPIs, 2<<10, uiLeaf)
	add("LayerPanel", []string{iUI}, guiAPIs, 24<<10, uiContainer("CLSID_LayerRow", 12))
	add("LayerRow", []string{iUI}, guiAPIs, 3<<10, uiLeaf)
	for _, leaf := range []string{"ZoomBar", "HistogramView", "StatusLine", "RulerH", "RulerV", "WorkCanvas"} {
		add(leaf, []string{iUI}, guiAPIs, 8<<10, uiLeaf)
	}
	for i := 0; i < 45; i++ {
		add(fmt.Sprintf("Deco%02d", i), []string{iUI}, guiAPIs, 2<<10, uiLeaf)
	}

	add("CompositionReader", []string{iReader}, nil, 80<<10, newReader)
	for _, ps := range propSetClasses {
		add(ps, []string{iProps}, nil, 16<<10, newPropSet)
	}

	add("SpriteCache", []string{iSprite, iPixels}, []string{com.APISharedMemory}, 28<<10, newSpriteCache)
	add("SpriteIndex", []string{iSprite}, []string{com.APISharedMemory}, 12<<10, newSpriteLeaf)
	add("TileMap", []string{iSprite}, []string{com.APISharedMemory}, 12<<10, newSpriteLeaf)
	add("DirtyRegion", []string{iSprite}, []string{com.APISharedMemory}, 6<<10, newSpriteLeaf)

	for i := 0; i < 12; i++ {
		add(fmt.Sprintf("Transform%02d", i), []string{iXform}, nil, 9<<10, newTransform)
	}
	// Pixel-pipeline classes, instantiated sparsely.
	for _, p := range []string{"Compositor", "Blender", "ColorMatch", "DitherEngine",
		"ScanConverter", "PreviewGen", "ExportEngine", "ImportWizard"} {
		add(p, []string{iXform}, nil, 14<<10, newTransform)
	}
	// Latent filter classes to match the application's class breadth.
	for i := 0; i < 19; i++ {
		add(fmt.Sprintf("Codec%02d", i), []string{iXform}, nil, 5<<10, newTransform)
	}
}

// annotateActivations attaches the static activation-site metadata the
// binary rewriter embeds as relocation records. The latent codec and
// pixel-pipeline classes activate nothing and are mentioned by no one:
// they are statically unreachable, like shipped code no scenario reaches.
func annotateActivations(reg *com.ClassRegistry) {
	set := func(name string, targets ...com.CLSID) {
		reg.LookupName(name).Activations = targets
	}
	frame := []com.CLSID{
		"CLSID_Toolbox", "CLSID_EffectGallery", "CLSID_ColorPicker", "CLSID_LayerPanel",
		"CLSID_ZoomBar", "CLSID_HistogramView", "CLSID_StatusLine",
		"CLSID_RulerH", "CLSID_RulerV", "CLSID_WorkCanvas",
	}
	for i := 0; i < 45; i++ {
		frame = append(frame, com.CLSID(fmt.Sprintf("CLSID_Deco%02d", i)))
	}
	set("StudioFrame", frame...)
	set("Toolbox", "CLSID_ToolIcon")
	set("EffectGallery", "CLSID_EffectTile")
	set("ColorPicker", "CLSID_ColorSwatch")
	set("LayerPanel", "CLSID_LayerRow")

	reader := []com.CLSID{"CLSID_ImageStore"}
	for _, ps := range propSetClasses {
		reader = append(reader, com.CLSID("CLSID_"+ps))
	}
	set("CompositionReader", reader...)

	// The sprite tree grows recursively and wires per-level helpers.
	set("SpriteCache", "CLSID_SpriteCache", "CLSID_SpriteIndex", "CLSID_TileMap", "CLSID_DirtyRegion")
}

func newImageStore() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Open":
			c.Compute(2 * time.Millisecond)
			return []idl.Value{idl.Int32(0)}, nil
		case "ReadBlock":
			n := int(c.Args[1].AsInt())
			c.Compute(time.Duration(n/4096+1) * 300 * time.Microsecond)
			return []idl.Value{idl.Zeros(n)}, nil
		}
		return nil, fmt.Errorf("ImageStore: bad method %s", c.Method)
	})
}

func uiLeaf() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Paint":
			c.Compute(costUI)
			return []idl.Value{}, nil
		case "Populate":
			return []idl.Value{idl.Int32(0)}, nil
		}
		return nil, fmt.Errorf("ui leaf: bad method %s", c.Method)
	})
}

func uiContainer(child com.CLSID, count int) func() com.Object {
	return func() com.Object {
		return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
			switch c.Method {
			case "Paint":
				c.Compute(costUI)
				return []idl.Value{}, nil
			case "Populate":
				total := 0
				for i := 0; i < count; i++ {
					inst, err := c.Create(child)
					if err != nil {
						return nil, err
					}
					total++
					u, err := c.Env.Query(inst, iUI)
					if err != nil {
						return nil, err
					}
					if _, err := c.Invoke(u, "Paint", idl.OpaquePtr("hdc")); err != nil {
						return nil, err
					}
					out, err := c.Invoke(u, "Populate")
					if err != nil {
						return nil, err
					}
					total += int(out[0].AsInt())
				}
				return []idl.Value{idl.Int32(int32(total))}, nil
			}
			return nil, fmt.Errorf("ui container: bad method %s", c.Method)
		})
	}
}

func newStudioFrame() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Init":
			total := 0
			mk := func(clsid com.CLSID) error {
				inst, err := c.Create(clsid)
				if err != nil {
					return err
				}
				total++
				u, err := c.Env.Query(inst, iUI)
				if err != nil {
					return err
				}
				if _, err := c.Invoke(u, "Paint", idl.OpaquePtr("hdc")); err != nil {
					return err
				}
				out, err := c.Invoke(u, "Populate")
				if err != nil {
					return err
				}
				total += int(out[0].AsInt())
				return nil
			}
			for _, clsid := range []com.CLSID{
				"CLSID_Toolbox", "CLSID_EffectGallery", "CLSID_ColorPicker", "CLSID_LayerPanel",
				"CLSID_ZoomBar", "CLSID_HistogramView", "CLSID_StatusLine",
				"CLSID_RulerH", "CLSID_RulerV", "CLSID_WorkCanvas",
			} {
				if err := mk(clsid); err != nil {
					return nil, err
				}
			}
			for i := 0; i < 45; i++ {
				if err := mk(com.CLSID(fmt.Sprintf("CLSID_Deco%02d", i))); err != nil {
					return nil, err
				}
			}
			return []idl.Value{idl.Int32(int32(total))}, nil
		case "Status":
			c.Compute(costUI / 4)
			return []idl.Value{}, nil
		case "Paint":
			c.Compute(costUI)
			return []idl.Value{}, nil
		case "Populate":
			return []idl.Value{idl.Int32(0)}, nil
		}
		return nil, fmt.Errorf("StudioFrame: bad method %s", c.Method)
	})
}

// newReader streams the composition: bulk tiles to the pixel sink, blobs
// to the seven property sets it creates.
func newReader() com.Object {
	var store *com.Interface
	var propSets []*com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Load":
			tiles := int(c.Args[0].AsInt())
			blobs := int(c.Args[1].AsInt())
			sink := c.Args[2].Iface.(*com.Interface)
			frame := c.Args[3].Iface.(*com.Interface)
			if store == nil {
				st, err := c.Create("CLSID_ImageStore")
				if err != nil {
					return nil, err
				}
				store, err = c.Env.Query(st, iStore)
				if err != nil {
					return nil, err
				}
				if _, err := c.Invoke(store, "Open", idl.String("composition.mix")); err != nil {
					return nil, err
				}
			}
			if propSets == nil {
				for _, ps := range propSetClasses {
					inst, err := c.Create(com.CLSID("CLSID_" + ps))
					if err != nil {
						return nil, err
					}
					itf, err := c.Env.Query(inst, iProps)
					if err != nil {
						return nil, err
					}
					propSets = append(propSets, itf)
				}
			}
			for t := 0; t < tiles; t++ {
				if _, err := c.Invoke(store, "ReadBlock",
					idl.Int32(int32(t*tileBytes)), idl.Int32(tileBytes)); err != nil {
					return nil, err
				}
				c.Compute(costDecodeTile)
				if _, err := c.Invoke(sink, "PushTile",
					idl.Zeros(tileBytes)); err != nil {
					return nil, err
				}
				if t%8 == 0 {
					if _, err := c.Invoke(frame, "Status", idl.String("decoding")); err != nil {
						return nil, err
					}
				}
			}
			for b := 0; b < blobs; b++ {
				for _, ps := range propSets {
					if _, err := c.Invoke(store, "ReadBlock",
						idl.Int32(0), idl.Int32(propBlobBytes)); err != nil {
						return nil, err
					}
					if _, err := c.Invoke(ps, "Ingest",
						idl.Zeros(propBlobBytes)); err != nil {
						return nil, err
					}
				}
			}
			return []idl.Value{idl.Int32(int32(tiles))}, nil
		case "PropSet":
			idx := int(c.Args[0].AsInt())
			if idx < 0 || idx >= len(propSets) {
				return nil, fmt.Errorf("CompositionReader: no property set %d", idx)
			}
			return []idl.Value{idl.IfacePtr(propSets[idx])}, nil
		}
		return nil, fmt.Errorf("CompositionReader: bad method %s", c.Method)
	})
}

func newPropSet() com.Object {
	ingested := 0
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Ingest":
			ingested += len(c.Args[0].Bytes)
			c.Compute(costProps)
			return []idl.Value{idl.Int32(int32(ingested / 1024))}, nil
		case "Query":
			c.Compute(costProps / 8)
			return []idl.Value{idl.Zeros(queryBytes)}, nil
		}
		return nil, fmt.Errorf("property set: bad method %s", c.Method)
	})
}

// newSpriteCache receives pixel tiles and grows a tree of child caches
// wired together through shared-memory pointers.
func newSpriteCache() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "PushTile":
			c.Compute(costUI)
			return []idl.Value{idl.Int32(int32(len(c.Args[0].Bytes)))}, nil
		case "AttachRegion", "Composite":
			c.Compute(costUI)
			return []idl.Value{idl.Int32(1)}, nil
		case "Grow":
			depth := int(c.Args[0].AsInt())
			created := 0
			if depth <= 0 {
				return []idl.Value{idl.Int32(0)}, nil
			}
			for i := 0; i < spriteFanout; i++ {
				child, err := c.Create("CLSID_SpriteCache")
				if err != nil {
					return nil, err
				}
				created++
				sitf, err := c.Env.Query(child, iSprite)
				if err != nil {
					return nil, err
				}
				// Shared-memory hand-off: opaque, non-remotable.
				if _, err := c.Invoke(sitf, "AttachRegion", idl.OpaquePtr("shm")); err != nil {
					return nil, err
				}
				out, err := c.Invoke(sitf, "Grow", idl.Int32(int32(depth-1)))
				if err != nil {
					return nil, err
				}
				created += int(out[0].AsInt())
			}
			// Each level also wires an index and a tile map.
			for _, aux := range []com.CLSID{"CLSID_SpriteIndex", "CLSID_TileMap", "CLSID_DirtyRegion"} {
				inst, err := c.Create(aux)
				if err != nil {
					return nil, err
				}
				created++
				sitf, err := c.Env.Query(inst, iSprite)
				if err != nil {
					return nil, err
				}
				if _, err := c.Invoke(sitf, "Composite", idl.OpaquePtr("shm")); err != nil {
					return nil, err
				}
			}
			return []idl.Value{idl.Int32(int32(created))}, nil
		}
		return nil, fmt.Errorf("SpriteCache: bad method %s", c.Method)
	})
}

func newSpriteLeaf() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "AttachRegion", "Composite", "Grow":
			c.Compute(costUI / 2)
			return []idl.Value{idl.Int32(0)}, nil
		}
		return nil, fmt.Errorf("sprite leaf: bad method %s", c.Method)
	})
}

func newTransform() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		if c.Method != "Apply" {
			return nil, fmt.Errorf("transform: bad method %s", c.Method)
		}
		c.Compute(costTransform)
		return []idl.Value{idl.Zeros(len(c.Args[0].Bytes))}, nil
	})
}

// session wires a scenario run.
type session struct {
	env    *com.Env
	frame  *com.Interface
	canvas *com.Interface // root sprite cache as pixel sink
	sprite *com.Interface
}

func runScenario(env *com.Env, scenario string, seed int64) error {
	s := &session{env: env}
	if err := s.buildStudio(); err != nil {
		return err
	}
	run := func(name string) error {
		shape, ok := shapes[name]
		if !ok {
			return fmt.Errorf("photodraw: unknown scenario %q", name)
		}
		return s.openComposition(shape)
	}
	if scenario == ScenBigone {
		for _, name := range ScenariosWithoutBigone() {
			base := name
			switch name {
			case ScenOffCur:
				base = ScenOldCur
			case ScenOffMsr:
				base = ScenOldMsr
			}
			if err := run(base); err != nil {
				return err
			}
		}
		return nil
	}
	switch scenario {
	case ScenOffCur:
		if err := run(ScenNewDoc); err != nil {
			return err
		}
		return run(ScenOldCur)
	case ScenOffMsr:
		if err := run(ScenNewDoc); err != nil {
			return err
		}
		return run(ScenOldMsr)
	default:
		return run(scenario)
	}
}

func (s *session) buildStudio() error {
	frame, err := s.env.CreateInstance(nil, "CLSID_StudioFrame")
	if err != nil {
		return err
	}
	s.frame, err = s.env.Query(frame, iFrame)
	if err != nil {
		return err
	}
	if _, err := s.env.Call(nil, s.frame, "Init"); err != nil {
		return err
	}
	return nil
}

func (s *session) openComposition(shape docShape) error {
	// The root sprite cache is the pixel sink; it grows the sprite tree.
	root, err := s.env.CreateInstance(nil, "CLSID_SpriteCache")
	if err != nil {
		return err
	}
	s.sprite, err = s.env.Query(root, iSprite)
	if err != nil {
		return err
	}
	sink, err := s.env.Query(root, iPixels)
	if err != nil {
		return err
	}
	if _, err := s.env.Call(nil, s.sprite, "Grow", idl.Int32(int32(shape.depth))); err != nil {
		return err
	}

	reader, err := s.env.CreateInstance(nil, "CLSID_CompositionReader")
	if err != nil {
		return err
	}
	ritf, err := s.env.Query(reader, iReader)
	if err != nil {
		return err
	}
	if _, err := s.env.Call(nil, ritf, "Load",
		idl.Int32(int32(shape.tiles)), idl.Int32(int32(shape.propBlobs)),
		idl.IfacePtr(sink), idl.IfacePtr(s.frame)); err != nil {
		return err
	}

	// The UI interrogates the property sets: one handle fetch per set,
	// then rounds of small queries.
	handles := make([]*com.Interface, len(propSetClasses))
	for i := range propSetClasses {
		out, err := s.env.Call(nil, ritf, "PropSet", idl.Int32(int32(i)))
		if err != nil {
			return err
		}
		handles[i] = out[0].Iface.(*com.Interface)
	}
	for round := 0; round < guiQueryRounds; round++ {
		for _, ps := range handles {
			if _, err := s.env.Call(nil, ps, "Query", idl.Int32(int32(round))); err != nil {
				return err
			}
		}
	}

	// A couple of transforms are applied to the selection.
	for i := 0; i < 2; i++ {
		tf, err := s.env.CreateInstance(nil, com.CLSID(fmt.Sprintf("CLSID_Transform%02d", i)))
		if err != nil {
			return err
		}
		titf, err := s.env.Query(tf, iXform)
		if err != nil {
			return err
		}
		if _, err := s.env.Call(nil, titf, "Apply",
			idl.Zeros(tileBytes)); err != nil {
			return err
		}
	}
	return nil
}
