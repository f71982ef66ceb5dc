package octarine

import (
	"fmt"

	"repro/internal/com"
	"repro/internal/idl"
)

// Table engine. A pure table document is read by the DocReader (which must
// scan every page to size columns) and rendered client-side by the
// TableModel and its cells; only the reader profits from moving to the
// server (paper Figure 7). A mixed text+table document additionally runs
// the page-placement negotiation: per page, a PagePlanner spawns
// TextNegotiator and TableNegotiator instances that repeatedly re-read
// document runs through the reader and exchange proposals with the
// planner, emitting only a tiny placement summary — the communication
// cluster that drags 280-odd components to the server in Figure 8.

const (
	embeddedTableCells = 6  // cells per embedded (small) table
	textNegsPerPage    = 15 // one per text block on the page
	tableNegsPerTable  = 20 // boundary candidates per embedded table
	tablesPerPage      = 2  // embedded tables influencing each page
	negotiationRounds  = 3
	embeddedTableBytes = 20 << 10
)

func registerTable(b *builder) {
	b.iface(&idl.InterfaceDesc{
		IID: iTable, Name: iTable, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Build", Params: []idl.ParamDesc{
				{Name: "reader", Dir: idl.In, Type: idl.InterfaceType(iReader)},
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
				{Name: "pages", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.TInt32},
			{Name: "BuildEmbedded", Params: []idl.ParamDesc{
				{Name: "reader", Dir: idl.In, Type: idl.InterfaceType(iReader)},
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
				{Name: "index", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.TInt32},
			{Name: "BuildHeaderCell", Params: []idl.ParamDesc{
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
				{Name: "sizer", Dir: idl.In, Type: idl.InterfaceType(iCell)},
				{Name: "data", Dir: idl.In, Type: idl.TBytes},
			}, Result: idl.TInt32},
			{Name: "BuildBodyCell", Params: []idl.ParamDesc{
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
				{Name: "data", Dir: idl.In, Type: idl.TBytes},
			}, Result: idl.TInt32},
		},
	})
	b.iface(&idl.InterfaceDesc{
		IID: iCell, Name: iCell, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "SetCells", Params: []idl.ParamDesc{{Name: "data", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TInt32},
			{Name: "Draw", Params: []idl.ParamDesc{{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)}}, Result: idl.TInt32},
			{Name: "DrawRuled", Params: []idl.ParamDesc{
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
				{Name: "sizer", Dir: idl.In, Type: idl.InterfaceType(iCell)},
			}, Result: idl.TInt32},
		},
	})
	b.iface(&idl.InterfaceDesc{
		IID: iNegot, Name: iNegot, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Propose", Params: []idl.ParamDesc{{Name: "proposal", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TBytes},
			{Name: "Bind", Params: []idl.ParamDesc{{Name: "reader", Dir: idl.In, Type: idl.InterfaceType(iReader)}}, Result: idl.TInt32},
		},
	})
	b.iface(&idl.InterfaceDesc{
		IID: iPlanner, Name: iPlanner, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Plan", Params: []idl.ParamDesc{
				{Name: "reader", Dir: idl.In, Type: idl.InterfaceType(iReader)},
				{Name: "page", Dir: idl.In, Type: idl.TInt32},
				{Name: "tables", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.TBytes},
		},
	})

	b.class("TableModel", []string{iTable}, nil, 40<<10, newTableModel)
	b.class("TableCell", []string{iCell}, nil, 6<<10, newTableCell)
	b.class("ColumnSizer", []string{iCell}, nil, 10<<10, newTableCell)
	b.class("RowBalancer", []string{iCell}, nil, 10<<10, newTableCell)
	b.class("PagePlanner", []string{iPlanner}, nil, 22<<10, newPagePlanner)
	b.class("TextNegotiator", []string{iNegot}, nil, 9<<10, newNegotiator)
	b.class("TableNegotiator", []string{iNegot}, nil, 9<<10, newNegotiator)
}

// newTableModel builds the rendered window of a table document: per page
// it pulls the cell payload from the reader and distributes it to cell
// components, which draw through the opaque device context.
func newTableModel() com.Object {
	var sizer *com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		mkCell := func(canvas *com.Interface, data idl.Value, ruled bool) error {
			cell, err := c.Create("CLSID_TableCell")
			if err != nil {
				return err
			}
			citf, err := c.Env.Query(cell, iCell)
			if err != nil {
				return err
			}
			if _, err := c.Invoke(citf, "SetCells", data); err != nil {
				return err
			}
			if ruled {
				_, err = c.Invoke(citf, "DrawRuled", idl.IfacePtr(canvas), idl.IfacePtr(sizer))
			} else {
				_, err = c.Invoke(citf, "Draw", idl.IfacePtr(canvas))
			}
			return err
		}
		switch c.Method {
		case "BuildHeaderCell":
			canvas := c.Args[0].Iface.(*com.Interface)
			if err := mkCell(canvas, c.Args[2], true); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(1)}, nil
		case "BuildBodyCell":
			canvas := c.Args[0].Iface.(*com.Interface)
			if err := mkCell(canvas, c.Args[1], false); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(1)}, nil
		case "Build":
			reader := c.Args[0].Iface.(*com.Interface)
			canvas := c.Args[1].Iface.(*com.Interface)
			pages := int(c.Args[2].AsInt())
			view := pages
			if view > viewWindowTB {
				view = viewWindowTB
			}
			// Column sizing consults two helper components once.
			for _, helper := range []com.CLSID{"CLSID_ColumnSizer", "CLSID_RowBalancer"} {
				h, err := c.Create(helper)
				if err != nil {
					return nil, err
				}
				hitf, err := c.Env.Query(h, iCell)
				if err != nil {
					return nil, err
				}
				if _, err := c.Invoke(hitf, "SetCells", idl.Zeros(256)); err != nil {
					return nil, err
				}
				if helper == "CLSID_ColumnSizer" {
					sizer = hitf
				}
			}
			// Header cells consult the column sizer while body cells render
			// directly — distinct code paths for one cell class, separable
			// only by call-chain classifiers.
			self, err := c.Env.Query(c.Self, iTable)
			if err != nil {
				return nil, err
			}
			created := 0
			for p := 0; p < view; p++ {
				out, err := c.Invoke(reader, "PageCells", idl.Int32(int32(p)))
				if err != nil {
					return nil, err
				}
				per := len(out[0].Bytes) / cellsPerPage
				for i := 0; i < cellsPerPage; i++ {
					data := idl.Zeros(per)
					var berr error
					if i%6 == 0 {
						_, berr = c.Invoke(self, "BuildHeaderCell",
							idl.IfacePtr(canvas), idl.IfacePtr(sizer), data)
					} else {
						_, berr = c.Invoke(self, "BuildBodyCell",
							idl.IfacePtr(canvas), data)
					}
					if berr != nil {
						return nil, berr
					}
					created++
				}
			}
			// Off-window pages contribute only placement summaries.
			for p := view; p < pages; p++ {
				if _, err := c.Invoke(reader, "PageSummary", idl.Int32(int32(p))); err != nil {
					return nil, err
				}
			}
			return []idl.Value{idl.Int32(int32(created))}, nil

		case "BuildEmbedded":
			reader := c.Args[0].Iface.(*com.Interface)
			canvas := c.Args[1].Iface.(*com.Interface)
			// An embedded table pulls its fragment and renders few cells.
			out, err := c.Invoke(reader, "GetRun",
				idl.Int32(int32(c.Args[2].AsInt())*64), idl.Int32(embeddedTableBytes))
			if err != nil {
				return nil, err
			}
			per := len(out[0].Bytes) / embeddedTableCells
			for i := 0; i < embeddedTableCells; i++ {
				cell, err := c.Create("CLSID_TableCell")
				if err != nil {
					return nil, err
				}
				citf, err := c.Env.Query(cell, iCell)
				if err != nil {
					return nil, err
				}
				if _, err := c.Invoke(citf, "SetCells", idl.Zeros(per)); err != nil {
					return nil, err
				}
				if _, err := c.Invoke(citf, "Draw", idl.IfacePtr(canvas)); err != nil {
					return nil, err
				}
			}
			return []idl.Value{idl.Int32(embeddedTableCells)}, nil
		}
		return nil, fmt.Errorf("TableModel: bad method %s", c.Method)
	})
}

// newTableCell renders one cell block through the opaque device context.
func newTableCell() com.Object {
	size := 0
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "SetCells":
			size = len(c.Args[0].Bytes)
			c.Compute(costLayoutCell)
			return []idl.Value{idl.Int32(int32(size))}, nil
		case "Draw":
			canvas := c.Args[0].Iface.(*com.Interface)
			if _, err := c.Invoke(canvas, "Render", idl.OpaquePtr("hdc")); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(int32(size))}, nil
		case "DrawRuled":
			canvas := c.Args[0].Iface.(*com.Interface)
			ruler := c.Args[1].Iface.(*com.Interface)
			if _, err := c.Invoke(ruler, "SetCells", idl.Zeros(96)); err != nil {
				return nil, err
			}
			if _, err := c.Invoke(canvas, "Render", idl.OpaquePtr("hdc")); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(int32(size))}, nil
		}
		return nil, fmt.Errorf("TableCell: bad method %s", c.Method)
	})
}

// newPagePlanner negotiates one page's placement: it spawns text and table
// negotiators and exchanges proposals with them over several rounds,
// returning only a small placement summary.
func newPagePlanner() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		if c.Method != "Plan" {
			return nil, fmt.Errorf("PagePlanner: bad method %s", c.Method)
		}
		reader := c.Args[0].Iface.(*com.Interface)
		tables := int(c.Args[2].AsInt())
		var negotiators []*com.Interface
		spawn := func(clsid com.CLSID, n int) error {
			for i := 0; i < n; i++ {
				neg, err := c.Create(clsid)
				if err != nil {
					return err
				}
				nitf, err := c.Env.Query(neg, iNegot)
				if err != nil {
					return err
				}
				if _, err := c.Invoke(nitf, "Bind", idl.IfacePtr(reader)); err != nil {
					return err
				}
				negotiators = append(negotiators, nitf)
			}
			return nil
		}
		if err := spawn("CLSID_TextNegotiator", textNegsPerPage); err != nil {
			return nil, err
		}
		if err := spawn("CLSID_TableNegotiator", tables*tableNegsPerTable); err != nil {
			return nil, err
		}
		for round := 0; round < negotiationRounds; round++ {
			for _, n := range negotiators {
				if _, err := c.Invoke(n, "Propose",
					idl.Zeros(proposalBytes)); err != nil {
					return nil, err
				}
			}
		}
		return []idl.Value{idl.Zeros(summaryBytes)}, nil
	})
}

// newNegotiator answers proposals: each round it re-reads a content run
// through the reader, computes, and counter-proposes.
func newNegotiator() com.Object {
	var reader *com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Bind":
			reader = c.Args[0].Iface.(*com.Interface)
			return []idl.Value{idl.Int32(1)}, nil
		case "Propose":
			if reader == nil {
				return nil, fmt.Errorf("negotiator: Propose before Bind")
			}
			if _, err := c.Invoke(reader, "GetRun",
				idl.Int32(0), idl.Int32(runQueryBytes)); err != nil {
				return nil, err
			}
			c.Compute(costNegotiate)
			return []idl.Value{idl.Zeros(proposalBytes)}, nil
		}
		return nil, fmt.Errorf("negotiator: bad method %s", c.Method)
	})
}

// layoutEmbeddedTables builds the embedded tables of a mixed document.
func layoutEmbeddedTables(c *com.Call, reader, canvas *com.Interface, tables int) error {
	for t := 0; t < tables; t++ {
		model, err := c.Create("CLSID_TableModel")
		if err != nil {
			return err
		}
		mitf, err := c.Env.Query(model, iTable)
		if err != nil {
			return err
		}
		if _, err := c.Invoke(mitf, "BuildEmbedded",
			idl.IfacePtr(reader), idl.IfacePtr(canvas), idl.Int32(int32(t))); err != nil {
			return err
		}
	}
	return nil
}

// negotiatePlacement runs the per-page page-placement negotiation.
func negotiatePlacement(c *com.Call, reader *com.Interface, pages int) error {
	for p := 0; p < pages; p++ {
		planner, err := c.Create("CLSID_PagePlanner")
		if err != nil {
			return err
		}
		pitf, err := c.Env.Query(planner, iPlanner)
		if err != nil {
			return err
		}
		if _, err := c.Invoke(pitf, "Plan",
			idl.IfacePtr(reader), idl.Int32(int32(p)), idl.Int32(tablesPerPage)); err != nil {
			return err
		}
	}
	return nil
}

// --- table scenarios ---

// newTableDocument creates an empty table grid; only a tiny style sheet is
// read from storage.
func (s *session) newTableDocument() error {
	ritf, err := s.openReader(kindTable, 0)
	if err != nil {
		return err
	}
	if _, err := s.call(ritf, "GetRun", idl.Int32(0), idl.Int32(6*1024)); err != nil {
		return err
	}
	model, err := s.create("CLSID_TableModel")
	if err != nil {
		return err
	}
	mitf, err := s.env.Query(model, iTable)
	if err != nil {
		return err
	}
	_, err = s.call(mitf, "Build",
		idl.IfacePtr(ritf), idl.IfacePtr(s.canvas), idl.Int32(0))
	return err
}

// viewTableDocument opens and renders a table document of the given page
// count.
func (s *session) viewTableDocument(pages int) error {
	ritf, err := s.openReader(kindTable, pages)
	if err != nil {
		return err
	}
	model, err := s.create("CLSID_TableModel")
	if err != nil {
		return err
	}
	mitf, err := s.env.Query(model, iTable)
	if err != nil {
		return err
	}
	_, err = s.call(mitf, "Build",
		idl.IfacePtr(ritf), idl.IfacePtr(s.canvas), idl.Int32(int32(pages)))
	return err
}
