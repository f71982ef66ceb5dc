// Package benefits reconstructs the MSDN Corporate Benefits Sample from
// the paper's application suite: a 3-tier client/server application with a
// Visual Basic front end (~5,300 lines), a middle tier of business-logic
// components (~32,000 lines of C++, about a dozen component classes), and
// a database reached through ODBC.
//
// Coign cannot analyze the proprietary connection between the ODBC driver
// and the database server, so — as in the paper — analysis focuses on the
// front end and middle tier: the database is infrastructure pinned behind
// the middle tier. The paper's surprising result is reproduced: many
// middle-tier components cache results for the client (pull one record,
// answer dozens of small field reads), so Coign moves the caching
// components — but not the business logic, whose database traffic pins it
// to the middle tier — to the client, reducing communication by roughly a
// third. Of ~196 components in the client and middle tier, the developer
// placed ~187 on the middle tier; Coign keeps ~135 there.
package benefits

import (
	"fmt"
	"time"

	"repro/internal/com"
	"repro/internal/idl"
)

// Scenario names (paper Table 1).
const (
	ScenVueOne = "b_vueone"
	ScenAddOne = "b_addone"
	ScenDelOne = "b_delone"
	ScenBigone = "b_bigone"
)

// Interface IDs.
const (
	iDB     = "IDatabase"
	iForm   = "IBenefitsForm"
	iMgr    = "IEmployeeManager"
	iCache  = "IRecordCache"
	iLogic  = "IBusinessLogic"
	iReport = "IReportBuilder"
	iGraph  = "IGraphView"
)

// Shape constants, calibrated to the paper's Figure 6 and Table 4.
const (
	dbRowBytes     = 2048 // one database row
	recordBytes    = 3072 // assembled record fed to a cache
	fieldBytes     = 48   // one GetField answer
	fieldsPerCache = 16   // GUI field reads per cache component (viewing)
	fieldsPerDel   = 6    // field reads while confirming a deletion
	cacheKinds     = 4    // record, dependents, coverage, history
	employeesView  = 12   // employees browsed in b_vueone
	validationsPer = 16   // business-rule checks per employee browsed
	reportRows     = 180  // graph rows plotted per report
	reportRowBytes = 8192 // plotted row payload (chart series data)
)

// Compute costs.
const (
	costDB    = 15 * time.Millisecond
	costLogic = 8 * time.Millisecond
	costUI    = 2 * time.Millisecond
)

var guiAPIs = []string{com.APIUserWindow, com.APIUserInput, com.APIGdiPaint}

// cacheClasses are the caching component classes, by record kind.
var cacheClasses = []com.CLSID{
	"CLSID_RecordCache", "CLSID_DependentsCache", "CLSID_CoverageCache", "CLSID_HistoryCache",
}

// frontEndPanes are the Visual Basic front end's panes (plus the form
// itself and the commercial graph control: 9 client components).
var frontEndPanes = []string{
	"QueryPane", "ReportPane", "NavBar", "DetailPane",
	"StatusPane", "LoginPane", "MenuPane",
}

// New assembles the Corporate Benefits application.
func New() *com.App {
	classes := com.NewClassRegistry()
	ifaces := idl.NewRegistry()
	registerInterfaces(ifaces)
	registerClasses(classes)
	annotateActivations(classes)
	app := &com.App{
		Name:       "benefits",
		Classes:    classes,
		Interfaces: ifaces,
		Imports:    []string{"benefits.exe", "benefits_mt.dll", "msgraph.ocx", "odbc32.dll"},
		// The front end creates the form, the middle-tier managers, and the
		// per-operation logic workers it drives directly.
		MainActivations: []com.CLSID{
			"CLSID_BenefitsForm", "CLSID_EmployeeManager", "CLSID_SessionMgr",
			"CLSID_Validator", "CLSID_ReportBuilder", "CLSID_AuditLog",
			"CLSID_BenefitsList", "CLSID_QueryEngine",
		},
	}
	app.Main = runScenario
	return app
}

func registerInterfaces(r *idl.Registry) {
	r.Register(&idl.InterfaceDesc{
		IID: iDB, Name: iDB, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Exec", Params: []idl.ParamDesc{{Name: "sql", Dir: idl.In, Type: idl.TString}}, Result: idl.TBytes},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iForm, Name: iForm, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Init", Result: idl.TInt32},
			{Name: "GetGraph", Result: idl.InterfaceType(iGraph)},
			{Name: "ShowStatus", Params: []idl.ParamDesc{{Name: "msg", Dir: idl.In, Type: idl.TString}}, Result: idl.TVoid},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iMgr, Name: iMgr, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Find", Params: []idl.ParamDesc{{Name: "who", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TInt32},
			{Name: "OpenRecord", Params: []idl.ParamDesc{
				{Name: "who", Dir: idl.In, Type: idl.TInt32},
				{Name: "kind", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.InterfaceType(iCache)},
			{Name: "Add", Params: []idl.ParamDesc{{Name: "record", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TInt32},
			{Name: "Delete", Params: []idl.ParamDesc{{Name: "who", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TInt32},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iCache, Name: iCache, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Fill", Params: []idl.ParamDesc{{Name: "record", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TInt32},
			{Name: "GetField", Cacheable: true,
				Params: []idl.ParamDesc{{Name: "idx", Dir: idl.In, Type: idl.TInt32}}, Result: idl.TBytes},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iLogic, Name: iLogic, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Run", Params: []idl.ParamDesc{{Name: "arg", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TInt32},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iReport, Name: iReport, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "BuildReport", Params: []idl.ParamDesc{
				{Name: "graph", Dir: idl.In, Type: idl.InterfaceType(iGraph)},
				{Name: "rows", Dir: idl.In, Type: idl.TInt32},
			}, Result: idl.TInt32},
		},
	})
	r.Register(&idl.InterfaceDesc{
		IID: iGraph, Name: iGraph, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "PlotRow", Params: []idl.ParamDesc{{Name: "row", Dir: idl.In, Type: idl.TBytes}}, Result: idl.TInt32},
			{Name: "Paint", Params: []idl.ParamDesc{{Name: "dc", Dir: idl.In, Type: idl.TOpaque}}, Result: idl.TVoid},
		},
	})
}

func registerClasses(reg *com.ClassRegistry) {
	add := func(name string, ifaces, apis []string, home com.Machine, infra bool, mk func() com.Object) *com.Class {
		c := &com.Class{
			ID: com.CLSID("CLSID_" + name), Name: name,
			Interfaces: ifaces, APIs: apis, CodeBytes: 12 << 10,
			Home: home, Infrastructure: infra, New: mk,
		}
		reg.Register(c)
		return c
	}

	// The database engine behind ODBC: unanalyzable infrastructure.
	add("Database", []string{iDB}, []string{com.APIODBCConnect, com.APIODBCExec}, com.Server, true, newDatabase)

	// Client front end (Visual Basic): GUI-pinned.
	add("BenefitsForm", []string{iForm, iGraph}, guiAPIs, com.Client, false, newForm)
	for _, fe := range frontEndPanes {
		add(fe, []string{iGraph}, guiAPIs, com.Client, false, newGraphView)
	}
	// The commercial graphing component from Microsoft Office.
	add("GraphView", []string{iGraph}, guiAPIs, com.Client, false, newGraphView)

	// Middle-tier business logic (Home = Server is the middle tier in the
	// two-machine cut; the database sits behind it).
	add("EmployeeManager", []string{iMgr}, nil, com.Server, false, newEmployeeManager)
	add("SessionMgr", []string{iLogic}, nil, com.Server, false, newLogic)
	add("Validator", []string{iLogic}, nil, com.Server, false, newLogic)
	add("AuditLog", []string{iLogic}, nil, com.Server, false, newLogic)
	add("BenefitsList", []string{iLogic}, nil, com.Server, false, newLogic)
	add("QueryEngine", []string{iLogic}, nil, com.Server, false, newLogic)
	add("QueryWorker", []string{iLogic}, nil, com.Server, false, newLogic)
	add("RowFetcher", []string{iLogic}, nil, com.Server, false, newLogic)
	add("JoinWorker", []string{iLogic}, nil, com.Server, false, newLogic)
	add("RowAggregator", []string{iLogic}, nil, com.Server, false, newLogic)
	add("ReportBuilder", []string{iReport}, nil, com.Server, false, newReportBuilder)

	// The caching components Coign moves to the client.
	add("RecordCache", []string{iCache}, nil, com.Server, false, newCache)
	add("DependentsCache", []string{iCache}, nil, com.Server, false, newCache)
	add("CoverageCache", []string{iCache}, nil, com.Server, false, newCache)
	add("HistoryCache", []string{iCache}, nil, com.Server, false, newCache)
}

// annotateActivations attaches the static activation-site metadata the
// binary rewriter embeds as relocation records. Every business-logic
// worker lazily opens its own database connection, so they all list the
// database as an activation target.
func annotateActivations(reg *com.ClassRegistry) {
	set := func(name string, targets ...com.CLSID) {
		reg.LookupName(name).Activations = targets
	}
	form := make([]com.CLSID, 0, len(frontEndPanes)+1)
	for _, fe := range frontEndPanes {
		form = append(form, com.CLSID("CLSID_"+fe))
	}
	set("BenefitsForm", append(form, "CLSID_GraphView")...)
	set("EmployeeManager", append([]com.CLSID{
		"CLSID_Database", "CLSID_QueryWorker", "CLSID_RowFetcher", "CLSID_JoinWorker",
	}, cacheClasses...)...)
	set("ReportBuilder", "CLSID_Database", "CLSID_RowAggregator")
	for _, logic := range []string{
		"SessionMgr", "Validator", "AuditLog", "BenefitsList", "QueryEngine",
		"QueryWorker", "RowFetcher", "JoinWorker", "RowAggregator",
	} {
		set(logic, "CLSID_Database")
	}
}

func newDatabase() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		if c.Method != "Exec" {
			return nil, fmt.Errorf("Database: bad method %s", c.Method)
		}
		c.Compute(costDB)
		return []idl.Value{idl.Zeros(dbRowBytes)}, nil
	})
}

func newForm() com.Object {
	var graph *com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Init":
			for _, pane := range frontEndPanes {
				inst, err := c.Create(com.CLSID("CLSID_" + pane))
				if err != nil {
					return nil, err
				}
				g, err := c.Env.Query(inst, iGraph)
				if err != nil {
					return nil, err
				}
				if _, err := c.Invoke(g, "Paint", idl.OpaquePtr("hdc")); err != nil {
					return nil, err
				}
			}
			gv, err := c.Create("CLSID_GraphView")
			if err != nil {
				return nil, err
			}
			g, err := c.Env.Query(gv, iGraph)
			if err != nil {
				return nil, err
			}
			if _, err := c.Invoke(g, "Paint", idl.OpaquePtr("hdc")); err != nil {
				return nil, err
			}
			graph = g
			return []idl.Value{idl.Int32(int32(len(frontEndPanes) + 1))}, nil
		case "GetGraph":
			if graph == nil {
				return nil, fmt.Errorf("BenefitsForm: GetGraph before Init")
			}
			return []idl.Value{idl.IfacePtr(graph)}, nil
		case "ShowStatus":
			c.Compute(costUI / 2)
			return []idl.Value{}, nil
		case "Paint":
			c.Compute(costUI)
			return []idl.Value{}, nil
		case "PlotRow":
			c.Compute(costUI)
			return []idl.Value{idl.Int32(0)}, nil
		}
		return nil, fmt.Errorf("BenefitsForm: bad method %s", c.Method)
	})
}

func newGraphView() com.Object {
	rows := 0
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "PlotRow":
			rows++
			c.Compute(costUI)
			return []idl.Value{idl.Int32(int32(rows))}, nil
		case "Paint":
			c.Compute(costUI)
			return []idl.Value{}, nil
		}
		return nil, fmt.Errorf("graph view: bad method %s", c.Method)
	})
}

// newEmployeeManager is the heart of the middle tier: it queries the
// database through per-request workers, assembles records, and spawns the
// cache components the GUI reads.
func newEmployeeManager() com.Object {
	var db *com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		ensureDB := func() error {
			if db != nil {
				return nil
			}
			inst, err := c.Create("CLSID_Database")
			if err != nil {
				return err
			}
			db, err = c.Env.Query(inst, iDB)
			return err
		}
		spawnLogic := func(clsid com.CLSID, payload int) error {
			inst, err := c.Create(clsid)
			if err != nil {
				return err
			}
			itf, err := c.Env.Query(inst, iLogic)
			if err != nil {
				return err
			}
			_, err = c.Invoke(itf, "Run", idl.Zeros(payload))
			return err
		}
		query := func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := c.Invoke(db, "Exec", idl.String("SELECT * FROM benefits")); err != nil {
					return err
				}
				c.Compute(costLogic)
			}
			return nil
		}
		switch c.Method {
		case "Find":
			if err := ensureDB(); err != nil {
				return nil, err
			}
			// A search runs in a dedicated query worker.
			if err := spawnLogic("CLSID_QueryWorker", 128); err != nil {
				return nil, err
			}
			if err := query(1); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(int32(c.Args[0].AsInt()))}, nil
		case "OpenRecord":
			if err := ensureDB(); err != nil {
				return nil, err
			}
			// Row assembly runs in a fetcher and a join worker; the cache
			// is filled once.
			if err := spawnLogic("CLSID_RowFetcher", 96); err != nil {
				return nil, err
			}
			if err := spawnLogic("CLSID_JoinWorker", 96); err != nil {
				return nil, err
			}
			if err := query(1); err != nil {
				return nil, err
			}
			kind := int(c.Args[1].AsInt()) % cacheKinds
			cache, err := c.Create(cacheClasses[kind])
			if err != nil {
				return nil, err
			}
			citf, err := c.Env.Query(cache, iCache)
			if err != nil {
				return nil, err
			}
			if _, err := c.Invoke(citf, "Fill", idl.Zeros(recordBytes)); err != nil {
				return nil, err
			}
			return []idl.Value{idl.IfacePtr(citf)}, nil
		case "Add":
			if err := ensureDB(); err != nil {
				return nil, err
			}
			if err := query(6); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(1)}, nil
		case "Delete":
			if err := ensureDB(); err != nil {
				return nil, err
			}
			if err := query(9); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(1)}, nil
		}
		return nil, fmt.Errorf("EmployeeManager: bad method %s", c.Method)
	})
}

func newLogic() com.Object {
	var db *com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		if c.Method != "Run" {
			return nil, fmt.Errorf("logic: bad method %s", c.Method)
		}
		if db == nil {
			inst, err := c.Create("CLSID_Database")
			if err != nil {
				return nil, err
			}
			db, err = c.Env.Query(inst, iDB)
			if err != nil {
				return nil, err
			}
		}
		// Business logic consults the database and answers tersely; its
		// database traffic exceeds its answer, pinning it near the data.
		for i := 0; i < 2; i++ {
			if _, err := c.Invoke(db, "Exec", idl.String("SELECT rule FROM policy")); err != nil {
				return nil, err
			}
		}
		c.Compute(costLogic)
		return []idl.Value{idl.Int32(1)}, nil
	})
}

func newReportBuilder() com.Object {
	var db *com.Interface
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		if c.Method != "BuildReport" {
			return nil, fmt.Errorf("ReportBuilder: bad method %s", c.Method)
		}
		if db == nil {
			inst, err := c.Create("CLSID_Database")
			if err != nil {
				return nil, err
			}
			db, err = c.Env.Query(inst, iDB)
			if err != nil {
				return nil, err
			}
		}
		graph := c.Args[0].Iface.(*com.Interface)
		rows := int(c.Args[1].AsInt())
		// Aggregation workers scan the database near the data.
		for i := 0; i < 3; i++ {
			agg, err := c.Create("CLSID_RowAggregator")
			if err != nil {
				return nil, err
			}
			aitf, err := c.Env.Query(agg, iLogic)
			if err != nil {
				return nil, err
			}
			if _, err := c.Invoke(aitf, "Run", idl.Zeros(64)); err != nil {
				return nil, err
			}
		}
		for i := 0; i < rows; i++ {
			// Read much, plot little: three row scans per chart point keep
			// the aggregation near the data.
			for j := 0; j < 3; j++ {
				if _, err := c.Invoke(db, "Exec", idl.String("SELECT agg FROM benefits")); err != nil {
					return nil, err
				}
			}
			c.Compute(costLogic)
			if _, err := c.Invoke(graph, "PlotRow",
				idl.Zeros(reportRowBytes)); err != nil {
				return nil, err
			}
		}
		return []idl.Value{idl.Int32(int32(rows))}, nil
	})
}

func newCache() com.Object {
	filled := 0
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "Fill":
			filled = len(c.Args[0].Bytes)
			c.Compute(costLogic / 2)
			return []idl.Value{idl.Int32(int32(filled))}, nil
		case "GetField":
			c.Compute(costUI / 4)
			return []idl.Value{idl.Zeros(fieldBytes)}, nil
		}
		return nil, fmt.Errorf("cache: bad method %s", c.Method)
	})
}

// session drives the front end.
type session struct {
	env       *com.Env
	form      *com.Interface
	graph     *com.Interface
	mgr       *com.Interface
	validator *com.Interface
}

func runScenario(env *com.Env, scenario string, seed int64) error {
	s := &session{env: env}
	if err := s.login(); err != nil {
		return err
	}
	switch scenario {
	case ScenVueOne:
		return s.viewEmployees(employeesView)
	case ScenAddOne:
		return s.addEmployee()
	case ScenDelOne:
		return s.deleteEmployee()
	case ScenBigone:
		if err := s.viewEmployees(employeesView); err != nil {
			return err
		}
		if err := s.addEmployee(); err != nil {
			return err
		}
		return s.deleteEmployee()
	default:
		return fmt.Errorf("benefits: unknown scenario %q", scenario)
	}
}

func (s *session) login() error {
	form, err := s.env.CreateInstance(nil, "CLSID_BenefitsForm")
	if err != nil {
		return err
	}
	s.form, err = s.env.Query(form, iForm)
	if err != nil {
		return err
	}
	if _, err := s.env.Call(nil, s.form, "Init"); err != nil {
		return err
	}
	// The form hands out its graph control through a typed accessor so the
	// static reachability analysis can follow the reference flow.
	gout, err := s.env.Call(nil, s.form, "GetGraph")
	if err != nil {
		return err
	}
	s.graph = gout[0].Iface.(*com.Interface)
	mgr, err := s.env.CreateInstance(nil, "CLSID_EmployeeManager")
	if err != nil {
		return err
	}
	s.mgr, err = s.env.Query(mgr, iMgr)
	if err != nil {
		return err
	}
	sess, err := s.env.CreateInstance(nil, "CLSID_SessionMgr")
	if err != nil {
		return err
	}
	sitf, err := s.env.Query(sess, iLogic)
	if err != nil {
		return err
	}
	if _, err := s.env.Call(nil, sitf, "Run", idl.Zeros(64)); err != nil {
		return err
	}
	val, err := s.env.CreateInstance(nil, "CLSID_Validator")
	if err != nil {
		return err
	}
	s.validator, err = s.env.Query(val, iLogic)
	return err
}

// browseEmployee opens the four caches for one employee, reads them field
// by field, and runs the per-record business-rule checks.
func (s *session) browseEmployee(who int) error {
	return s.browseEmployeeFields(who, fieldsPerCache)
}

func (s *session) browseEmployeeFields(who, fields int) error {
	if _, err := s.env.Call(nil, s.mgr, "Find", idl.Int32(int32(who))); err != nil {
		return err
	}
	for kind := 0; kind < cacheKinds; kind++ {
		out, err := s.env.Call(nil, s.mgr, "OpenRecord",
			idl.Int32(int32(who)), idl.Int32(int32(kind)))
		if err != nil {
			return err
		}
		citf := out[0].Iface.(*com.Interface)
		for f := 0; f < fields; f++ {
			if _, err := s.env.Call(nil, citf, "GetField", idl.Int32(int32(f))); err != nil {
				return err
			}
		}
	}
	// Business-rule validation stays in the middle tier: its database
	// traffic exceeds the terse answers the client receives.
	for v := 0; v < validationsPer; v++ {
		if _, err := s.env.Call(nil, s.validator, "Run",
			idl.Zeros(96)); err != nil {
			return err
		}
	}
	return s.statusUpdate("record loaded")
}

func (s *session) statusUpdate(msg string) error {
	_, err := s.env.Call(nil, s.form, "ShowStatus", idl.String(msg))
	return err
}

func (s *session) viewEmployees(n int) error {
	for who := 0; who < n; who++ {
		if err := s.browseEmployee(who); err != nil {
			return err
		}
	}
	rb, err := s.env.CreateInstance(nil, "CLSID_ReportBuilder")
	if err != nil {
		return err
	}
	ritf, err := s.env.Query(rb, iReport)
	if err != nil {
		return err
	}
	_, err = s.env.Call(nil, ritf, "BuildReport",
		idl.IfacePtr(s.graph), idl.Int32(reportRows))
	return err
}

func (s *session) addEmployee() error {
	if _, err := s.env.Call(nil, s.validator, "Run",
		idl.Zeros(512)); err != nil {
		return err
	}
	if _, err := s.env.Call(nil, s.mgr, "Add",
		idl.Zeros(recordBytes)); err != nil {
		return err
	}
	a, err := s.env.CreateInstance(nil, "CLSID_AuditLog")
	if err != nil {
		return err
	}
	aitf, err := s.env.Query(a, iLogic)
	if err != nil {
		return err
	}
	if _, err := s.env.Call(nil, aitf, "Run", idl.Zeros(128)); err != nil {
		return err
	}
	return s.browseEmployee(999)
}

func (s *session) deleteEmployee() error {
	// A deletion confirms only a few fields before acting.
	if err := s.browseEmployeeFields(3, fieldsPerDel); err != nil {
		return err
	}
	for _, logic := range []com.CLSID{"CLSID_BenefitsList", "CLSID_QueryEngine"} {
		inst, err := s.env.CreateInstance(nil, logic)
		if err != nil {
			return err
		}
		itf, err := s.env.Query(inst, iLogic)
		if err != nil {
			return err
		}
		if _, err := s.env.Call(nil, itf, "Run", idl.Zeros(256)); err != nil {
			return err
		}
	}
	if _, err := s.env.Call(nil, s.mgr, "Delete", idl.Int32(3)); err != nil {
		return err
	}
	return s.statusUpdate("deleted")
}
