package octarine

import (
	"fmt"
	"time"

	"repro/internal/com"
	"repro/internal/idl"
)

// Document kinds handled by the DocReader.
const (
	kindTemplate = 0
	kindText     = 1
	kindTable    = 2
	kindMusic    = 3
	kindMixed    = 4
)

// pageContentBytes is the parsed page delivered to layout: raw text plus
// expanded formatting objects, slightly larger than the on-disk form.
// Because delivered content exceeds the raw read, moving the reader to the
// server does not pay off until the document is much larger than the
// render window — which is why small text documents keep the default
// distribution (paper Table 4: 0% savings for o_oldwp0/o_oldwp3) while
// large ones move the reader and the text-properties component (Figure 5).
const pageContentBytes = 130 << 10

// readChunkBytes is the store's read granularity: two chunks per page.
const readChunkBytes = pageBytes / 2

// cellContentBytes is the rendered cell payload per table page: dense
// tables deliver almost exactly their raw size, so the reader's move to
// the server saves only the parse margin (paper: 1% on o_oldtb0).
const cellContentBytes = cellsPerPage * 4900 // ≈ 86.1 KB, under pageBytes by the parse margin

func registerText(b *builder) {
	b.iface(&idl.InterfaceDesc{
		IID: iReader, Name: iReader, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "LoadDocument", Params: []idl.ParamDesc{
				{Name: "kind", Dir: idl.In, Type: idl.TInt32},
				{Name: "pages", Dir: idl.In, Type: idl.TInt32},
				{Name: "frame", Dir: idl.In, Type: idl.InterfaceType(iFrame)},
			}, Result: idl.TInt32},
			{Name: "PageContent", Params: []idl.ParamDesc{{Name: "page", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TBytes},
			{Name: "PageCells", Params: []idl.ParamDesc{{Name: "page", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TBytes},
			{Name: "PageSummary", Params: []idl.ParamDesc{{Name: "page", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TBytes},
			{Name: "GetRun", Params: []idl.ParamDesc{
				{Name: "off", Dir: idl.In, Type: idl.TInt32},
				{Name: "n", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.TBytes},
			{Name: "GetProps", Result: idl.InterfaceType(iProps)},
		},
	})
	b.iface(&idl.InterfaceDesc{
		IID: iProps, Name: iProps, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "PutRuns", Params: []idl.ParamDesc{{Name: "runs", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TInt32},
			{Name: "Query", Cacheable: true,
				Params: []idl.ParamDesc{{Name: "para", Dir: idl.In, Type: idl.TInt32}},
				Result: idl.Struct("ParaProps",
					idl.Field("font", idl.TInt32),
					idl.Field("spacing", idl.TInt32),
					idl.Field("leading", idl.TFloat64))},
		},
	})
	b.iface(&idl.InterfaceDesc{
		IID: iFlow, Name: iFlow, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "LayoutText", Params: []idl.ParamDesc{
				{Name: "reader", Dir: idl.In, Type: idl.InterfaceType(iReader)},
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
				{Name: "pages", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.TInt32},
			{Name: "LayoutMixed", Params: []idl.ParamDesc{
				{Name: "reader", Dir: idl.In, Type: idl.InterfaceType(iReader)},
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
				{Name: "pages", Dir: idl.In, Type: idl.TInt32},
				{Name: "tables", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.TInt32},
		},
	})
	b.iface(&idl.InterfaceDesc{
		IID: iPara, Name: iPara, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "SetText", Params: []idl.ParamDesc{{Name: "text", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TInt32},
			{Name: "Format", Params: []idl.ParamDesc{
				{Name: "props", Dir: idl.In, Type: idl.InterfaceType(iProps)},
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
			}, Result: idl.TInt32},
			{Name: "FormatBody", Params: []idl.ParamDesc{
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
			}, Result: idl.TInt32},
		},
	})

	b.class("DocReader", []string{iReader}, nil, 64<<10, newDocReader)
	b.class("DocManager", []string{iDocMgr}, nil, 24<<10, newDocManager)
	b.class("PageFrame", []string{iPage}, nil, 10<<10, newPageFrame)
	b.class("TextProps", []string{iProps}, nil, 32<<10, newTextProps)
	b.class("TextFlow", []string{iFlow}, nil, 48<<10, newTextFlow)
	b.class("Paragraph", []string{iPara}, nil, 8<<10, newParagraph)

	// Small text-service singletons the flow consults; they exist to give
	// the class registry the breadth of the real application.
	for _, svc := range []string{"LineBreaker", "FontMetrics", "SpellScan", "UndoLog", "ClipFormat"} {
		b.class(svc, []string{iProps}, nil, 12<<10, newTextProps)
	}
	// Latent import/export filter classes: registered, rarely
	// instantiated, mirroring Octarine's long tail of component classes.
	for i := 0; i < 35; i++ {
		b.class(fmt.Sprintf("Filter%02d", i), []string{iPara}, nil, 4<<10, newParagraph)
	}
	for _, latent := range []string{"PrintDriver", "PageSetup", "MacroEngine",
		"ThesaurusSvc", "AutoCorrect", "StyleGallery", "Bookmarks", "FieldCodes"} {
		b.class(latent, []string{iProps}, nil, 10<<10, newTextProps)
	}
}

// newDocReader is the document reader: it streams the raw document from
// server-side storage, feeds style runs to the text-properties component,
// and serves parsed content. It does not cache: GetRun re-reads from
// storage, which is what makes the page-placement negotiation expensive in
// the default distribution.
func newDocReader() com.Object {
	var store *com.Interface
	var props *com.Interface
	kind := kindTemplate
	pages := 0
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "LoadDocument":
			kind = int(c.Args[0].AsInt())
			pages = int(c.Args[1].AsInt())
			frame, _ := c.Args[2].Iface.(*com.Interface)
			if store == nil {
				st, err := c.Create("CLSID_FileStore")
				if err != nil {
					return nil, err
				}
				store, err = c.Env.Query(st, iStore)
				if err != nil {
					return nil, err
				}
			}
			if _, err := c.Invoke(store, "Open", idl.String("document.oct")); err != nil {
				return nil, err
			}
			needsProps := kind == kindText || kind == kindMixed
			if needsProps && props == nil {
				tp, err := c.Create("CLSID_TextProps")
				if err != nil {
					return nil, err
				}
				props, err = c.Env.Query(tp, iProps)
				if err != nil {
					return nil, err
				}
			}
			for p := 0; p < pages; p++ {
				// The store serves fixed-size chunks; a page is two reads.
				for off := 0; off < pageBytes; off += readChunkBytes {
					if _, err := c.Invoke(store, "ReadRange",
						idl.Int32(int32(p*pageBytes+off)), idl.Int32(readChunkBytes)); err != nil {
						return nil, err
					}
				}
				if kind == kindTable {
					c.Compute(costScanPage)
				} else {
					c.Compute(costParsePage)
				}
				if needsProps {
					if _, err := c.Invoke(props, "PutRuns",
						idl.Zeros(styleRunBytes)); err != nil {
						return nil, err
					}
				}
				if frame != nil && p%4 == 0 {
					if _, err := c.Invoke(frame, "Status",
						idl.String(fmt.Sprintf("loading page %d", p))); err != nil {
						return nil, err
					}
				}
			}
			return []idl.Value{idl.Int32(int32(pages))}, nil

		case "PageContent":
			c.Compute(costParsePage / 8)
			return []idl.Value{idl.Zeros(pageContentBytes)}, nil

		case "PageCells":
			c.Compute(costParsePage / 8)
			return []idl.Value{idl.Zeros(cellContentBytes)}, nil

		case "PageSummary":
			c.Compute(costParsePage / 64)
			return []idl.Value{idl.Zeros(summaryBytes)}, nil

		case "GetRun":
			if store == nil {
				return nil, fmt.Errorf("DocReader: GetRun before LoadDocument")
			}
			n := int(c.Args[1].AsInt())
			out, err := c.Invoke(store, "ReadRange", c.Args[0], c.Args[1])
			if err != nil {
				return nil, err
			}
			c.Compute(2 * time.Millisecond)
			_ = out
			return []idl.Value{idl.Zeros(n)}, nil

		case "GetProps":
			if props == nil {
				return nil, fmt.Errorf("DocReader: document has no text properties")
			}
			return []idl.Value{idl.IfacePtr(props)}, nil
		}
		return nil, fmt.Errorf("DocReader: bad method %s", c.Method)
	})
}

// newTextProps summarizes style runs and answers small property queries.
func newTextProps() com.Object {
	runs := 0
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "PutRuns":
			runs += len(c.Args[0].Bytes)
			c.Compute(costProps)
			return []idl.Value{idl.Int32(int32(runs / 1024))}, nil
		case "Query":
			c.Compute(costProps / 4)
			pp := idl.Struct("ParaProps",
				idl.Field("font", idl.TInt32),
				idl.Field("spacing", idl.TInt32),
				idl.Field("leading", idl.TFloat64))
			return []idl.Value{idl.StructVal(pp,
				idl.Int32(int32(c.Args[0].AsInt())%7), idl.Int32(12), idl.Float64(1.2))}, nil
		}
		return nil, fmt.Errorf("TextProps: bad method %s", c.Method)
	})
}

// newTextFlow lays out the rendered window of a document, creating one
// Paragraph per text block and consulting the text services.
func newTextFlow() com.Object {
	servicesBuilt := false
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		buildServices := func() error {
			if servicesBuilt {
				return nil
			}
			servicesBuilt = true
			for _, svc := range []string{"LineBreaker", "FontMetrics", "SpellScan", "UndoLog", "ClipFormat"} {
				inst, err := c.Create(com.CLSID("CLSID_" + svc))
				if err != nil {
					return err
				}
				itf, err := c.Env.Query(inst, iProps)
				if err != nil {
					return err
				}
				if _, err := c.Invoke(itf, "Query", idl.Int32(0)); err != nil {
					return err
				}
			}
			return nil
		}
		layoutTextPages := func(reader, canvas *com.Interface, pages, view int) error {
			props, err := c.Invoke(reader, "GetProps")
			if err != nil {
				return err
			}
			propsItf := props[0].Iface.(*com.Interface)
			// The flow paints page frames and scroll state directly
			// through the device context, which ties it (and the text
			// services it owns) to the display: only the reader and the
			// properties component are free to move (paper Figure 5).
			if _, err := c.Invoke(canvas, "Render", idl.OpaquePtr("hdc")); err != nil {
				return err
			}
			// Pages chain: each page frame lays out its paragraphs and
			// creates the next frame, so per-page components carry
			// lineage-specific call-chain contexts.
			if view > 0 {
				first, err := c.Create("CLSID_PageFrame")
				if err != nil {
					return err
				}
				fitf, err := c.Env.Query(first, iPage)
				if err != nil {
					return err
				}
				if _, err := c.Invoke(fitf, "Continue",
					idl.IfacePtr(reader), idl.IfacePtr(propsItf), idl.IfacePtr(canvas),
					idl.Int32(0), idl.Int32(int32(view))); err != nil {
					return err
				}
			}
			for p := view; p < pages; p++ {
				if _, err := c.Invoke(reader, "PageSummary", idl.Int32(int32(p))); err != nil {
					return err
				}
			}
			return nil
		}

		switch c.Method {
		case "LayoutText":
			reader := c.Args[0].Iface.(*com.Interface)
			canvas := c.Args[1].Iface.(*com.Interface)
			pages := int(c.Args[2].AsInt())
			if err := buildServices(); err != nil {
				return nil, err
			}
			view := pages
			if view > viewWindowWP {
				view = viewWindowWP
			}
			if err := layoutTextPages(reader, canvas, pages, view); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(int32(view))}, nil

		case "LayoutMixed":
			reader := c.Args[0].Iface.(*com.Interface)
			canvas := c.Args[1].Iface.(*com.Interface)
			pages := int(c.Args[2].AsInt())
			tables := int(c.Args[3].AsInt())
			if err := buildServices(); err != nil {
				return nil, err
			}
			view := pages
			if view > viewWindowWP {
				view = viewWindowWP
			}
			if err := layoutTextPages(reader, canvas, pages, view); err != nil {
				return nil, err
			}
			// Embedded tables render through the table engine.
			if err := layoutEmbeddedTables(c, reader, canvas, tables); err != nil {
				return nil, err
			}
			// Page placement must now be negotiated between the table and
			// text components.
			if err := negotiatePlacement(c, reader, pages); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(int32(view))}, nil
		}
		return nil, fmt.Errorf("TextFlow: bad method %s", c.Method)
	})
}

// newParagraph holds one text block, consults the properties component,
// and renders through the opaque device context (pinning it with the GUI).
func newParagraph() com.Object {
	textLen := 0
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "SetText":
			textLen = len(c.Args[0].Bytes)
			c.Compute(costLayoutPara / 2)
			return []idl.Value{idl.Int32(int32(textLen))}, nil
		case "Format":
			props := c.Args[0].Iface.(*com.Interface)
			canvas := c.Args[1].Iface.(*com.Interface)
			for q := 0; q < 3; q++ {
				if _, err := c.Invoke(props, "Query", idl.Int32(int32(q))); err != nil {
					return nil, err
				}
			}
			c.Compute(costLayoutPara)
			if _, err := c.Invoke(canvas, "Render", idl.OpaquePtr("hdc")); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(int32(textLen))}, nil
		case "FormatBody":
			canvas := c.Args[0].Iface.(*com.Interface)
			c.Compute(costLayoutPara)
			if _, err := c.Invoke(canvas, "Render", idl.OpaquePtr("hdc")); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(int32(textLen))}, nil
		}
		return nil, fmt.Errorf("Paragraph: bad method %s", c.Method)
	})
}

// --- text scenarios ---

func (s *session) openReader(kind, pages int) (*com.Interface, error) {
	if s.docmgr == nil {
		dm, err := s.create("CLSID_DocManager")
		if err != nil {
			return nil, err
		}
		s.docmgr, err = s.env.Query(dm, iDocMgr)
		if err != nil {
			return nil, err
		}
	}
	var method string
	for m, k := range docOpenMethods {
		if k == kind {
			method = m
		}
	}
	out, err := s.call(s.docmgr, method,
		idl.Int32(int32(pages)), idl.IfacePtr(s.frameCtl))
	if err != nil {
		return nil, err
	}
	return out[0].Iface.(*com.Interface), nil
}

// newTextDocument creates a fresh text document from the application
// template: the template is read from storage and its content delivered to
// a one-page layout.
func (s *session) newTextDocument() error {
	ritf, err := s.openReader(kindText, 2) // template: two pages of styles
	if err != nil {
		return err
	}
	flow, err := s.create("CLSID_TextFlow")
	if err != nil {
		return err
	}
	fitf, err := s.env.Query(flow, iFlow)
	if err != nil {
		return err
	}
	_, err = s.call(fitf, "LayoutText",
		idl.IfacePtr(ritf), idl.IfacePtr(s.canvas), idl.Int32(2))
	return err
}

// viewTextDocument opens and renders a text-only document of the given
// page count.
func (s *session) viewTextDocument(pages int) error {
	ritf, err := s.openReader(kindText, pages)
	if err != nil {
		return err
	}
	flow, err := s.create("CLSID_TextFlow")
	if err != nil {
		return err
	}
	fitf, err := s.env.Query(flow, iFlow)
	if err != nil {
		return err
	}
	_, err = s.call(fitf, "LayoutText",
		idl.IfacePtr(ritf), idl.IfacePtr(s.canvas), idl.Int32(int32(pages)))
	return err
}

// viewMixedDocument opens a text document with embedded tables.
func (s *session) viewMixedDocument(pages, tables int) error {
	ritf, err := s.openReader(kindMixed, pages)
	if err != nil {
		return err
	}
	flow, err := s.create("CLSID_TextFlow")
	if err != nil {
		return err
	}
	fitf, err := s.env.Query(flow, iFlow)
	if err != nil {
		return err
	}
	_, err = s.call(fitf, "LayoutMixed",
		idl.IfacePtr(ritf), idl.IfacePtr(s.canvas),
		idl.Int32(int32(pages)), idl.Int32(int32(tables)))
	return err
}
