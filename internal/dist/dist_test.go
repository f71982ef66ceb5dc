package dist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/octarine"
	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/logger"
	"repro/internal/netsim"
)

// pipelineApp models a tiny document pipeline: main creates a Reader
// (which pulls blocks from server-pinned Storage) and a View that the
// Reader feeds. Scenario "small" reads 2 blocks, "big" reads 20.
func pipelineApp() *com.App {
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IStorage", Remotable: true,
		Methods: []idl.MethodDesc{{
			Name:   "ReadBlock",
			Params: []idl.ParamDesc{{Name: "n", Dir: idl.In, Type: idl.TInt32}},
			Result: idl.TBytes,
		}},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IReader", Remotable: true,
		Methods: []idl.MethodDesc{{
			Name:   "Load",
			Params: []idl.ParamDesc{{Name: "blocks", Dir: idl.In, Type: idl.TInt32}},
			Result: idl.TInt32,
		}},
	})
	ifaces.Register(&idl.InterfaceDesc{
		IID: "IView", Remotable: true,
		Methods: []idl.MethodDesc{{
			Name:   "Show",
			Params: []idl.ParamDesc{{Name: "summary", Dir: idl.In, Type: idl.TString}},
			Result: idl.TVoid,
		}},
	})

	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_Storage", Name: "Storage", Interfaces: []string{"IStorage"},
		APIs: []string{com.APIFileRead}, Home: com.Server, Infrastructure: true,
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				c.Compute(100 * time.Microsecond)
				return []idl.Value{idl.ByteBuf(make([]byte, 4096))}, nil
			})
		},
	})
	classes.Register(&com.Class{
		ID: "CLSID_Reader", Name: "Reader", Interfaces: []string{"IReader"},
		New: func() com.Object {
			var storage *com.Interface
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				if storage == nil {
					st, err := c.Create("CLSID_Storage")
					if err != nil {
						return nil, err
					}
					storage, err = c.Env.Query(st, "IStorage")
					if err != nil {
						return nil, err
					}
				}
				n := int(c.Args[0].AsInt())
				total := 0
				for i := 0; i < n; i++ {
					out, err := c.Invoke(storage, "ReadBlock", idl.Int32(int32(i)))
					if err != nil {
						return nil, err
					}
					total += len(out[0].Bytes)
					c.Compute(50 * time.Microsecond)
				}
				return []idl.Value{idl.Int32(int32(total))}, nil
			})
		},
	})
	classes.Register(&com.Class{
		ID: "CLSID_View", Name: "View", Interfaces: []string{"IView"},
		APIs: []string{com.APIGdiPaint},
		New: func() com.Object {
			return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
				c.Compute(20 * time.Microsecond)
				return []idl.Value{}, nil
			})
		},
	})

	app := &com.App{Name: "pipeline", Classes: classes, Interfaces: ifaces}
	app.Main = func(env *com.Env, scenario string, seed int64) error {
		blocks := 2
		if scenario == "big" {
			blocks = 20
		}
		reader, err := env.CreateInstance(nil, "CLSID_Reader")
		if err != nil {
			return err
		}
		view, err := env.CreateInstance(nil, "CLSID_View")
		if err != nil {
			return err
		}
		ritf, err := env.Query(reader, "IReader")
		if err != nil {
			return err
		}
		if _, err := env.Call(nil, ritf, "Load", idl.Int32(int32(blocks))); err != nil {
			return err
		}
		vitf, err := env.Query(view, "IView")
		if err != nil {
			return err
		}
		_, err = env.Call(nil, vitf, "Show", idl.String("done"))
		return err
	}
	return app
}

func TestClockAccounting(t *testing.T) {
	t.Parallel()
	c := NewClock(netsim.TenBaseT, nil)
	// Compute on two machines, interleaved: the execution is synchronous,
	// so every machine's compute adds to one total.
	c.Compute(com.Client, time.Millisecond)
	c.Compute(com.Server, 2*time.Millisecond)
	c.Compute(com.Client, 4*time.Millisecond)
	c.RemoteCall(com.Client, com.Server, 100, 200)
	if c.ComputeTime() != 7*time.Millisecond {
		t.Errorf("compute = %v, want 7ms", c.ComputeTime())
	}
	want := netsim.TenBaseT.MessageTime(100) + netsim.TenBaseT.MessageTime(200)
	if c.CommTime() != want {
		t.Errorf("comm = %v, want %v", c.CommTime(), want)
	}
	if c.Elapsed() != 7*time.Millisecond+want {
		t.Errorf("elapsed = %v, want %v", c.Elapsed(), 7*time.Millisecond+want)
	}
	if c.Messages() != 2 || c.Bytes() != 300 {
		t.Errorf("messages=%d bytes=%d", c.Messages(), c.Bytes())
	}
}

func TestClockJitterDeterministicWithSeed(t *testing.T) {
	t.Parallel()
	a := NewClock(netsim.TenBaseT, rand.New(rand.NewSource(1)))
	b := NewClock(netsim.TenBaseT, rand.New(rand.NewSource(1)))
	for i := 0; i < 10; i++ {
		a.RemoteCall(com.Client, com.Server, 1000, 1000)
		b.RemoteCall(com.Client, com.Server, 1000, 1000)
	}
	if a.CommTime() != b.CommTime() {
		t.Error("seeded jitter not reproducible")
	}
	c := NewClock(netsim.TenBaseT, rand.New(rand.NewSource(2)))
	for i := 0; i < 10; i++ {
		c.RemoteCall(com.Client, com.Server, 1000, 1000)
	}
	if a.CommTime() == c.CommTime() {
		t.Error("different seeds produced identical jitter")
	}
}

func TestRunBareMode(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{App: pipelineApp(), Scenario: "small", Mode: ModeBare})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 3 {
		t.Errorf("instances = %d", res.Instances)
	}
	if res.TrappedCalls != 0 {
		t.Error("bare mode trapped calls")
	}
	if res.Clock.CommTime() != 0 {
		t.Error("bare mode accrued communication")
	}
}

func TestRunDefaultModeChargesStorageTraffic(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		App: pipelineApp(), Scenario: "small", Mode: ModeDefault,
		Classifier: classify.New(classify.IFCB, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Storage is pinned to the server; the reader runs on the client, so
	// every block read crosses the network.
	if res.Clock.CommTime() == 0 {
		t.Fatal("default distribution accrued no communication")
	}
	if res.PerMachine[com.Server] != 1 {
		t.Errorf("server instances = %d", res.PerMachine[com.Server])
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}

	// A bigger document means proportionally more communication.
	big, err := Run(Config{
		App: pipelineApp(), Scenario: "big", Mode: ModeDefault,
		Classifier: classify.New(classify.IFCB, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.Clock.CommTime() <= res.Clock.CommTime()*5 {
		t.Errorf("big scenario comm %v not ≫ small %v", big.Clock.CommTime(), res.Clock.CommTime())
	}
}

func TestRunProfilingMode(t *testing.T) {
	t.Parallel()
	trace := logger.NewTrace()
	res, err := Run(Config{
		App: pipelineApp(), Scenario: "small", Mode: ModeProfiling,
		Classifier: classify.New(classify.IFCB, 0), Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("no profile collected")
	}
	var instances int64
	for _, ci := range res.Profile.Classifications {
		instances += ci.Instances
	}
	if instances != 3 {
		t.Errorf("profile instances = %d", instances)
	}
	// 2 block reads + Load + Show = 4 calls.
	if res.Profile.TotalCalls() != 4 {
		t.Errorf("profile calls = %d", res.Profile.TotalCalls())
	}
	// Profiling runs non-distributed: no communication accrued.
	if res.Clock.CommTime() != 0 {
		t.Error("profiling run accrued communication")
	}
	// The run's profile is what its trace folded.
	if res.Trace != trace || res.Profile != trace.Profile() || trace.Len() == 0 {
		t.Error("the run's profile is not its stored trace's fold")
	}
}

func TestRunCoignModeMovesReaderToServer(t *testing.T) {
	t.Parallel()
	// Profile first to learn classifications.
	prof, err := Run(Config{
		App: pipelineApp(), Scenario: "big", Mode: ModeProfiling,
		Classifier: classify.New(classify.IFCB, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Build a hand-made distribution: reader to the server.
	distMap := make(map[string]com.Machine)
	for _, ci := range prof.Profile.Classifications {
		switch ci.Class {
		case "Reader", "Storage":
			distMap[ci.ID] = com.Server
		default:
			distMap[ci.ID] = com.Client
		}
	}
	coign, err := Run(Config{
		App: pipelineApp(), Scenario: "big", Mode: ModeCoign,
		Classifier:   classify.New(classify.IFCB, 0),
		Distribution: distMap,
	})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Run(Config{
		App: pipelineApp(), Scenario: "big", Mode: ModeDefault,
		Classifier: classify.New(classify.IFCB, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Moving the reader server-side removes the bulk block traffic.
	if coign.Clock.CommTime() >= def.Clock.CommTime() {
		t.Errorf("coign %v not better than default %v", coign.Clock.CommTime(), def.Clock.CommTime())
	}
	if coign.PerMachine[com.Server] != 2 {
		t.Errorf("server instances = %d", coign.PerMachine[com.Server])
	}
	if coign.Relocations == 0 {
		t.Error("no relocations recorded")
	}
	if coign.Unknown != 0 {
		t.Errorf("unknown classifications = %d", coign.Unknown)
	}
	if coign.Violations != 0 {
		t.Errorf("violations = %d", coign.Violations)
	}
}

func TestRunCoignUnknownClassificationFallback(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		App: pipelineApp(), Scenario: "small", Mode: ModeCoign,
		Classifier:   classify.New(classify.IFCB, 0),
		Distribution: map[string]com.Machine{"bogus": com.Server},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reader and View are unknown to the factory; Storage is
	// infrastructure and never consults it.
	if res.Unknown != 2 {
		t.Errorf("unknown = %d, want 2", res.Unknown)
	}
}

// TestFactoryPlaces holds the component factory's one placement function
// to its rules in each mode, and its counters to exactly the relocations
// and unknown classifications it saw.
func TestFactoryPlaces(t *testing.T) {
	t.Parallel()
	app := &com.Class{Name: "App", Home: com.Client}
	remote := &com.Class{Name: "Remote", Home: com.Server}
	infra := &com.Class{Name: "Infra", Home: com.Server, Infrastructure: true}
	type placement struct {
		classification string
		class          *com.Class
		creator, want  com.Machine
	}
	for _, tc := range []struct {
		name                 string
		fac                  factory
		placements           []placement
		relocations, unknown int64
	}{{
		name: "default sends every class home",
		fac:  factory{mode: ModeDefault},
		placements: []placement{
			{"a", app, com.Server, com.Client},
			{"b", remote, com.Client, com.Server},
			{"c", infra, com.Client, com.Server},
		},
	}, {
		name: "coign follows the map",
		fac: factory{mode: ModeCoign, dist: map[string]com.Machine{
			"a": com.Server, "b": com.Client, "infra": com.Client}},
		placements: []placement{
			{"a", app, com.Client, com.Server},                // mapped away from its creator and Home
			{"a", app, com.Server, com.Server},                // mapped to where its creator is
			{"b", remote, com.Server, com.Client},             // mapped away from its Home
			{"mystery", app, com.Server, com.Server},          // unknown: follows its creator, not Home
			{"mystery", remote, com.Client, com.Client},       // unknown: follows its creator, not Home
			{"infra", infra, com.Client, com.Server},          // infrastructure stays Home though mapped away
			{"unmapped-infra", infra, com.Client, com.Server}, // infrastructure never consults the map
		},
		relocations: 2,
		unknown:     2,
	}} {
		f := tc.fac
		for _, p := range tc.placements {
			if got := f.place(p.classification, p.class, p.creator); got != p.want {
				t.Errorf("%s: %s (%s) from %v placed on %v, want %v",
					tc.name, p.classification, p.class.Name, p.creator, got, p.want)
			}
		}
		if f.relocations != tc.relocations || f.unknown != tc.unknown {
			t.Errorf("%s: %d relocations, %d unknown; want %d and %d",
				tc.name, f.relocations, f.unknown, tc.relocations, tc.unknown)
		}
	}
}

func TestRunErrors(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{}); err == nil {
		t.Error("nil app accepted")
	}
	if _, err := Run(Config{App: pipelineApp(), Mode: ModeProfiling}); err == nil {
		t.Error("missing classifier accepted")
	}
	if _, err := Run(Config{App: pipelineApp(), Mode: ModeCoign,
		Classifier: classify.New(classify.ST, 0)}); err == nil {
		t.Error("missing distribution accepted")
	}
	if _, err := Run(Config{App: pipelineApp(), Mode: Mode(99),
		Classifier: classify.New(classify.ST, 0)}); err == nil {
		t.Error("bad mode accepted")
	}
	bad := pipelineApp()
	bad.Main = func(env *com.Env, scenario string, seed int64) error {
		_, err := env.CreateInstance(nil, "CLSID_Missing")
		return err
	}
	if _, err := Run(Config{App: bad, Scenario: "x", Mode: ModeBare}); err == nil {
		t.Error("failing scenario not propagated")
	}
}

// pipelineTrace is the event trace of a profiling run of the pipeline
// app's scenario at seed.
func pipelineTrace(t testing.TB, scenario string, seed int64) *logger.Trace {
	t.Helper()
	trace := logger.NewTrace()
	if _, err := Run(Config{
		App: pipelineApp(), Scenario: scenario, Seed: seed, Mode: ModeProfiling,
		Classifier: classify.New(classify.IFCB, 0), Trace: trace,
	}); err != nil {
		t.Fatal(err)
	}
	return trace
}

// events reads a trace back.
func events(trace *logger.Trace) []logger.Event {
	out := make([]logger.Event, trace.Len())
	for i := range out {
		out[i] = trace.At(i)
	}
	return out
}

// record appends evs to a new trace through its recording methods; an
// event of no known kind is dropped.
func record(evs []logger.Event) *logger.Trace {
	trace := logger.NewTrace()
	for _, ev := range evs {
		switch ev.Kind {
		case logger.EvBegin:
			trace.BeginRun(ev.App, ev.Scen, "ifcb")
		case logger.EvInstantiation:
			trace.Instantiation(ev.Inst)
		case logger.EvCall:
			trace.Call(ev.Call)
		case logger.EvEnd:
			trace.EndRun()
		case logger.EvFault:
			trace.Fault(ev.Fault)
		case logger.EvMutation:
			trace.Mutation(ev.Call.DstInst, ev.Call.Method)
		}
	}
	return trace
}

// readerOnServer maps every classification in trace to the client except
// the Reader's and the Storage's, which go to the server.
func readerOnServer(trace *logger.Trace) map[string]com.Machine {
	m := map[string]com.Machine{}
	for _, ev := range events(trace) {
		if ev.Kind == logger.EvInstantiation {
			m[ev.Inst.Classification] = com.Client
			if ev.Inst.Class == "Reader" || ev.Inst.Class == "Storage" {
				m[ev.Inst.Classification] = com.Server
			}
		}
	}
	return m
}

// priced renders the fields of a result a trace determines, so a replay
// and the run it replays compare with ==.
func priced(r *Result) string {
	return fmt.Sprintf("comm=%v msgs=%d bytes=%d violations=%d instances=%d/%d per-machine=%v/%v "+
		"relocations=%d unknown=%d calls=%d faults=%d/%d/%d/%d",
		r.Clock.CommTime(), r.Clock.Messages(), r.Clock.Bytes(), r.Violations,
		r.Instances, r.AppInstances, r.PerMachine, r.AppPerMachine, r.Relocations, r.Unknown,
		r.TrappedCalls, r.Retries, r.FaultDrops, r.FaultCorruptions, r.FaultGiveUps)
}

// replayEqualsRun fails t unless Replay(cfg, trace) and Run(cfg) agree on
// every priced field, and returns the run.
func replayEqualsRun(t *testing.T, cfg Config, trace *logger.Trace) *Result {
	t.Helper()
	run, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := priced(rep), priced(run); got != want {
		t.Errorf("mode %d: replay %s\nrun    %s", cfg.Mode, got, want)
	}
	return run
}

func TestEventTraceAndReplay(t *testing.T) {
	t.Parallel()
	trace := pipelineTrace(t, "big", 0)
	if trace.Len() == 0 {
		t.Fatal("no event trace")
	}
	for _, cfg := range []Config{
		{Mode: ModeDefault},
		{Mode: ModeDefault, Jitter: true},
		{Mode: ModeCoign, Distribution: readerOnServer(trace)},
		{Mode: ModeCoign, Distribution: readerOnServer(trace), Jitter: true},
	} {
		cfg.App, cfg.Scenario, cfg.Classifier = pipelineApp(), "big", classify.New(classify.IFCB, 0)
		if run := replayEqualsRun(t, cfg, trace); run.Clock.CommTime() == 0 {
			t.Errorf("mode %d: nothing crossed machines", cfg.Mode)
		}
	}
}

// TestOneMeasurementInEveryMode checks that a distributed run's trace
// carries the sizes and remotability profiling measures: call for call, a
// ModeDefault trace records the instances, method, InBytes, OutBytes and
// NonRemotable of the ModeProfiling trace of the same scenario, and the
// run's Violations are exactly its crossing calls flagged NonRemotable,
// with each instance on its class's Home machine as the default
// distribution places it.
func TestOneMeasurementInEveryMode(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		app      *com.App
		scenario string
	}{
		{pipelineApp(), "big"},
		{octarine.New(), octarine.ScenOldWp7},
	} {
		calls := func(mode Mode) ([]logger.CallRecord, map[uint64]com.Machine, *Result) {
			trace := logger.NewTrace()
			res, err := Run(Config{App: c.app, Scenario: c.scenario, Mode: mode,
				Classifier: classify.New(classify.IFCB, 0), Trace: trace})
			if err != nil {
				t.Fatalf("%s mode %d: %v", c.scenario, mode, err)
			}
			var out []logger.CallRecord
			home := map[uint64]com.Machine{0: com.Client}
			for _, ev := range events(trace) {
				switch ev.Kind {
				case logger.EvCall:
					out = append(out, ev.Call)
				case logger.EvInstantiation:
					home[ev.Inst.ID] = c.app.Classes.LookupName(ev.Inst.Class).Home
				}
			}
			return out, home, res
		}
		prof, _, _ := calls(ModeProfiling)
		def, home, res := calls(ModeDefault)
		if len(def) != len(prof) || len(def) == 0 {
			t.Fatalf("%s: %d default calls traced, %d profiled", c.scenario, len(def), len(prof))
		}
		crossing, flagged := 0, 0
		for i, d := range def {
			if d != prof[i] {
				t.Fatalf("%s call %d: default trace %+v, profiled %+v", c.scenario, i, d, prof[i])
			}
			if home[d.SrcInst] != home[d.DstInst] {
				crossing++
				if d.NonRemotable {
					flagged++
				}
			}
		}
		if crossing == 0 {
			t.Errorf("%s: no call crossed machines in the default distribution", c.scenario)
		}
		if res.Violations != flagged {
			t.Errorf("%s: violations = %d, crossing calls flagged non-remotable = %d", c.scenario, res.Violations, flagged)
		}
	}
}

func TestReplayUnknownInstance(t *testing.T) {
	t.Parallel()
	trace := pipelineTrace(t, "small", 0)
	mutated := func(f func(ev *logger.Event) bool) *logger.Trace {
		var out []logger.Event
		for _, ev := range events(trace) {
			if f(&ev) {
				out = append(out, ev)
			}
		}
		return record(out)
	}
	coign := Config{App: pipelineApp(), Scenario: "small", Mode: ModeCoign,
		Classifier: classify.New(classify.IFCB, 0), Distribution: readerOnServer(trace)}
	nth := func(n int, f func(in *logger.InstRecord)) *logger.Trace {
		seen := 0
		return mutated(func(ev *logger.Event) bool {
			if ev.Kind == logger.EvInstantiation {
				if seen++; seen == n {
					f(&ev.Inst)
				}
			}
			return true
		})
	}
	for _, c := range []struct {
		name  string
		cfg   func(*Config)
		trace *logger.Trace
		want  string
	}{
		{"missing instantiation", nil, mutated(func(ev *logger.Event) bool { return ev.Kind != logger.EvInstantiation }), "unknown instance"},
		{"unknown creator", nil, mutated(func(ev *logger.Event) bool {
			ev.Inst.CreatorInst += 99
			return true
		}), "unknown creator"},
		{"unknown class", nil, mutated(func(ev *logger.Event) bool {
			if ev.Kind == logger.EvInstantiation {
				ev.Inst.Class += "?"
			}
			return true
		}), "unknown class"},
		{"instantiated twice", nil, nth(2, func(in *logger.InstRecord) { in.ID = 1 }), "instance 1 twice"},
		{"main program instantiated", nil, nth(1, func(in *logger.InstRecord) { in.ID = 0 }), "instance 0 twice"},
		{"id out of order", nil, nth(2, func(in *logger.InstRecord) { in.ID = 3 }), "instance 3 out of order"},
		{"bare mode", func(c *Config) { c.Mode = ModeBare }, trace, "ModeDefault and ModeCoign only"},
		{"profiling mode", func(c *Config) { c.Mode = ModeProfiling }, trace, "ModeDefault and ModeCoign only"},
		{"caching", func(c *Config) { c.EnableCaching = true }, trace, "cannot price caching"},
		{"nil app", func(c *Config) { c.App = nil }, trace, "no application"},
	} {
		cfg := coign
		if c.cfg != nil {
			c.cfg(&cfg)
		}
		if _, err := Replay(cfg, c.trace); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: replay error %v, want one containing %q", c.name, err, c.want)
		}
	}

	// A classification the map lacks follows its creator, as in Run.
	partial := map[string]com.Machine{}
	for _, ev := range events(trace) {
		if ev.Kind == logger.EvInstantiation && ev.Inst.Class == "Reader" {
			partial[ev.Inst.Classification] = com.Server
		}
	}
	coign.Distribution = partial
	if run := replayEqualsRun(t, coign, trace); run.Unknown != 1 {
		t.Errorf("unknown = %d, want 1 (the View)", run.Unknown)
	}
}
