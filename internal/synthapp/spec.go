package synthapp

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/com"
	"repro/internal/idl"
)

// The generator works in two phases: a family builder produces an
// appSpec — a compact intermediate description of classes, call edges,
// and scenario scripts — and materialize turns the spec into a live
// com.App with typed interfaces and behaviour closures. Keeping the IR
// separate lets family builders stay declarative (they only decide
// topology, homes, pins, and intensities) while all com/idl plumbing
// lives in one place.

// edgeSpec is one caller→callee call pattern: every invocation of the
// caller's Work method invokes the target's Work `calls` times with an
// `argBytes` payload. When fanCalls > 0 the target is a factory: each
// call yields a fresh product interface which the caller then invokes
// fanCalls times with fanBytes payloads.
type edgeSpec struct {
	target   string
	calls    int
	argBytes int
	fanCalls int
	fanBytes int
}

// classSpec describes one component class.
type classSpec struct {
	name      string
	home      com.Machine
	infra     bool
	apis      []string
	shared    []string // additional (registry-level shared) IIDs implemented
	codeBytes int
	compute   time.Duration
	resBytes  int    // size of the byte payload Work returns
	opaque    bool   // Work takes an opaque handle → interface non-remotable
	handle    string // the opaque handle callers pass, set by materialize
	// opaqueResult makes Work return an opaque handle instead of bytes.
	// Unlike opaque, the interface stays declared remotable — the clean
	// methods still marshal — so it classifies conditionally remotable
	// with the Opaque flag (unless Work is its only method).
	opaqueResult bool
	cacheable    bool // Work is marked cacheable in the IDL
	// factoryFor names the product class of a dynamic factory: Work
	// creates a fresh product and returns its interface. Implies
	// DynamicActivation; the product is deliberately NOT listed in the
	// factory's static activations.
	factoryFor string
	edges      []edgeSpec
	// latent lists statically declared activation targets this class
	// never creates at run time (the planted uncovered edges).
	latent []string
	// alsoActivates lists statically declared activation targets that are
	// created on this class's behalf by a dynamic factory downstream (the
	// reachability analysis attributes such activations to the innermost
	// non-factory frame, i.e. to this class).
	alsoActivates []string
	// stateBytes > 0 ships a state descriptor: Work declared a reader, plus
	// a mutating Update method the scenarios may drive (see step.updates).
	stateBytes int
	// stateless ships a zero-byte state descriptor, declaring every method
	// read-only.
	stateless bool
}

// step is one scenario action: create `instances` instances of a class
// and call Work `calls` times on each with a `payload`-byte buffer, then
// Update `updates` times (only meaningful for classes with stateBytes).
type step struct {
	class     string
	instances int
	calls     int
	payload   int
	updates   int
}

type scenarioSpec struct {
	name  string
	steps []step
}

// sharedIfaceSpec is an interface implemented by several classes (beyond
// each class's own primary interface).
type sharedIfaceSpec struct {
	iid       string
	remotable bool
}

// appSpec is the full intermediate description a family builder emits.
type appSpec struct {
	shared           []sharedIfaceSpec
	classes          []classSpec
	scenarios        []scenarioSpec // training scenarios in order; bigone is derived
	plantsInfeasible bool
	latentPairs      [][2]string
	// readMostlyPlant / statefulDecoy name the classes the purity analysis
	// must grade read-mostly and stateful respectively (read-replica only).
	readMostlyPlant string
	statefulDecoy   string
	// aliasPlantPairs / aliasDecoyPairs are the alias-analysis ground
	// truth (shared-state only): pairs that truly share mutable state and
	// must stay welded under the points-to refinement, and pairs that only
	// exchange immutable payloads and must not.
	aliasPlantPairs [][2]string
	aliasDecoyPairs [][2]string
}

// App is a generated application plus the metadata the property harness
// needs: which scenarios train the classifier, whether the family plants
// a default distribution that violates constraints, and which activation
// edges are statically declared but never driven.
type App struct {
	Config Config
	App    *com.App
	// Training lists the classifier-training scenarios; Bigone is the
	// synthesis of all of them.
	Training []string
	Bigone   string
	// PlantsInfeasibleDefault reports that the family deliberately homes
	// two must-co-locate classes on different machines, so analysis must
	// report DefaultViolations > 0. Families without the plant must
	// report exactly zero.
	PlantsInfeasibleDefault bool
	// LatentPairs lists (creator, target) class pairs whose activation
	// site is statically declared but never exercised by any scenario —
	// the coverage stage must surface each as an uncovered edge.
	LatentPairs [][2]string
	// ReadMostlyPlant names the class the purity analysis must grade
	// read-mostly; StatefulDecoy the write-heavy class it must grade
	// stateful. Both empty for families without purity plants.
	ReadMostlyPlant string
	StatefulDecoy   string
	// AliasPlantPairs lists class pairs that truly share mutable state
	// (the alias refinement must keep them welded); AliasDecoyPairs lists
	// pairs that exchange only immutable opaque payloads (the refinement
	// must clear their welds). Both empty for families without alias
	// plants.
	AliasPlantPairs [][2]string
	AliasDecoyPairs [][2]string
}

// Generate builds the application for a config. Identical configs yield
// identical applications, down to byte-identical binary images. Invalid
// configs are rejected with a *ConfigError.
func Generate(cfg Config) (*App, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var spec appSpec
	switch cfg.Family {
	case ThreeTier:
		spec = threeTierSpec(rng, cfg.Scale)
	case ScatterGather:
		spec = scatterGatherSpec(rng, cfg.Scale)
	case Pipeline:
		spec = pipelineSpec(rng, cfg.Scale)
	case GUISwarm:
		spec = guiSwarmSpec(rng, cfg.Scale)
	case CacheHeavy:
		spec = cacheHeavySpec(rng, cfg.Scale)
	case Skewed:
		spec = skewedSpec(rng, cfg.Scale)
	case ReadReplica:
		spec = readReplicaSpec(rng, cfg.Scale)
	case SharedState:
		spec = sharedStateSpec(rng, cfg.Scale)
	default:
		return nil, &ConfigError{Field: "family", Reason: fmt.Sprintf("unknown family %q", cfg.Family)}
	}
	return materialize(cfg, spec)
}

func clsidOf(name string) com.CLSID { return com.CLSID("CLSID_" + name) }
func iidOf(name string) string      { return "I" + name }

// materialize turns an appSpec into a live application. Errors indicate
// family-builder defects (dangling references, cycles), not bad configs.
func materialize(cfg Config, spec appSpec) (*App, error) {
	byName := make(map[string]*classSpec, len(spec.classes))
	for i := range spec.classes {
		cs := &spec.classes[i]
		if _, dup := byName[cs.name]; dup {
			return nil, fmt.Errorf("synthapp: duplicate class %q in %s spec", cs.name, cfg.Family)
		}
		byName[cs.name] = cs
	}
	if err := checkSpec(spec, byName); err != nil {
		return nil, err
	}

	ifaces := idl.NewRegistry()
	for _, sh := range spec.shared {
		ifaces.Register(&idl.InterfaceDesc{
			IID: sh.iid, Remotable: sh.remotable,
			Methods: []idl.MethodDesc{
				{Name: "Blit", Params: []idl.ParamDesc{
					{Name: "dc", Dir: idl.In, Type: idl.TOpaque},
				}, Result: idl.TVoid},
			},
		})
	}
	for i := range spec.classes {
		cs := &spec.classes[i]
		params := []idl.ParamDesc{
			{Name: "level", Dir: idl.In, Type: idl.TInt32},
			{Name: "data", Dir: idl.In, Type: idl.TBytes},
		}
		if cs.opaque {
			params = append(params, idl.ParamDesc{Name: "handle", Dir: idl.In, Type: idl.TOpaque})
			cs.handle = "hdc:" + cs.name
		}
		result := idl.TBytes
		if cs.factoryFor != "" {
			result = idl.InterfaceType(iidOf(cs.factoryFor))
		} else if cs.opaqueResult {
			result = idl.TOpaque
		}
		methods := []idl.MethodDesc{
			{Name: "Work", Params: params, Result: result, Cacheable: cs.cacheable},
		}
		if cs.stateBytes > 0 {
			methods = append(methods, idl.MethodDesc{
				Name: "Update",
				Params: []idl.ParamDesc{
					{Name: "level", Dir: idl.In, Type: idl.TInt32},
					{Name: "data", Dir: idl.In, Type: idl.TBytes},
				},
				Result: idl.TBytes,
			})
		}
		ifaces.Register(&idl.InterfaceDesc{
			IID:       iidOf(cs.name),
			Remotable: !cs.opaque,
			Methods:   methods,
		})
	}

	classes := com.NewClassRegistry()
	for i := range spec.classes {
		cs := &spec.classes[i]
		classes.Register(&com.Class{
			ID:                clsidOf(cs.name),
			Name:              cs.name,
			Interfaces:        append([]string{iidOf(cs.name)}, cs.shared...),
			APIs:              cs.apis,
			CodeBytes:         cs.codeBytes,
			Home:              cs.home,
			Infrastructure:    cs.infra,
			Activations:       activationsOf(cs),
			DynamicActivation: cs.factoryFor != "",
			State:             stateOf(cs),
			New:               behaviorFor(cs, byName),
		})
	}

	app := &com.App{
		Name:            cfg.Name(),
		Classes:         classes,
		Interfaces:      ifaces,
		Imports:         []string{"kernel32.dll", "ole32.dll"},
		MainActivations: mainActivations(spec),
	}
	scenarios := make(map[string][]step, len(spec.scenarios)+1)
	var training []string
	var bigone []step
	for _, sc := range spec.scenarios {
		scenarios[sc.name] = sc.steps
		training = append(training, sc.name)
		bigone = append(bigone, sc.steps...)
	}
	scenarios[ScenBigone] = bigone
	app.Main = func(env *com.Env, scenario string, seed int64) error {
		steps, ok := scenarios[scenario]
		if !ok {
			return fmt.Errorf("synthapp: app %s has no scenario %q", app.Name, scenario)
		}
		return runSteps(env, steps, byName, seed)
	}

	return &App{
		Config:                  cfg,
		App:                     app,
		Training:                training,
		Bigone:                  ScenBigone,
		PlantsInfeasibleDefault: spec.plantsInfeasible,
		LatentPairs:             spec.latentPairs,
		ReadMostlyPlant:         spec.readMostlyPlant,
		StatefulDecoy:           spec.statefulDecoy,
		AliasPlantPairs:         spec.aliasPlantPairs,
		AliasDecoyPairs:         spec.aliasDecoyPairs,
	}, nil
}

// stateOf derives a class's state declaration: stateful classes declare
// Work a reader and Update the sole writer, stateless classes declare
// zero state bytes, and everything else ships no descriptor (leaving the
// purity analysis to its conservative unknown).
func stateOf(cs *classSpec) *com.StateDesc {
	switch {
	case cs.stateBytes > 0:
		return &com.StateDesc{Bytes: cs.stateBytes, Reads: []string{"Work"}, Writes: []string{"Update"}}
	case cs.stateless:
		return &com.StateDesc{Bytes: 0}
	default:
		return nil
	}
}

// checkSpec validates referential integrity and acyclicity of the call
// topology (a cycle would recurse without bound during profiling).
func checkSpec(spec appSpec, byName map[string]*classSpec) error {
	sharedKnown := make(map[string]bool, len(spec.shared))
	for _, sh := range spec.shared {
		sharedKnown[sh.iid] = true
	}
	for i := range spec.classes {
		cs := &spec.classes[i]
		for _, e := range cs.edges {
			t, ok := byName[e.target]
			if !ok {
				return fmt.Errorf("synthapp: class %q calls unknown class %q", cs.name, e.target)
			}
			if e.target == cs.name {
				return fmt.Errorf("synthapp: class %q calls itself", cs.name)
			}
			if e.fanCalls > 0 && t.factoryFor == "" {
				return fmt.Errorf("synthapp: class %q fans out through non-factory %q", cs.name, e.target)
			}
		}
		for _, l := range append(append([]string{}, cs.latent...), cs.alsoActivates...) {
			if _, ok := byName[l]; !ok {
				return fmt.Errorf("synthapp: class %q activates unknown class %q", cs.name, l)
			}
		}
		if cs.factoryFor != "" {
			if _, ok := byName[cs.factoryFor]; !ok {
				return fmt.Errorf("synthapp: factory %q produces unknown class %q", cs.name, cs.factoryFor)
			}
		}
		for _, iid := range cs.shared {
			if !sharedKnown[iid] {
				return fmt.Errorf("synthapp: class %q implements unknown shared interface %q", cs.name, iid)
			}
		}
	}
	for _, sc := range spec.scenarios {
		for _, st := range sc.steps {
			if _, ok := byName[st.class]; !ok {
				return fmt.Errorf("synthapp: scenario %q drives unknown class %q", sc.name, st.class)
			}
		}
	}
	// Cycle check over call/product edges by depth-first search.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(spec.classes))
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case grey:
			return fmt.Errorf("synthapp: call cycle through class %q", name)
		case black:
			return nil
		}
		color[name] = grey
		cs := byName[name]
		for _, e := range cs.edges {
			if err := visit(e.target); err != nil {
				return err
			}
		}
		if cs.factoryFor != "" {
			if err := visit(cs.factoryFor); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	for i := range spec.classes {
		if err := visit(spec.classes[i].name); err != nil {
			return err
		}
	}
	return nil
}

// activationsOf derives the static activation metadata of a class: its
// call-edge targets, planted latent targets, and attributed dynamic
// activations — but never a factory's own product (that is the whole
// point of DynamicActivation).
func activationsOf(cs *classSpec) []com.CLSID {
	var out []com.CLSID
	seen := make(map[string]bool)
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, clsidOf(name))
		}
	}
	for _, e := range cs.edges {
		add(e.target)
	}
	for _, l := range cs.latent {
		add(l)
	}
	for _, a := range cs.alsoActivates {
		add(a)
	}
	return out
}

// mainActivations lists the classes the main program instantiates, in
// first-appearance order across the training scenarios.
func mainActivations(spec appSpec) []com.CLSID {
	var out []com.CLSID
	seen := make(map[string]bool)
	for _, sc := range spec.scenarios {
		for _, st := range sc.steps {
			if !seen[st.class] {
				seen[st.class] = true
				out = append(out, clsidOf(st.class))
			}
		}
	}
	return out
}

// behaviorFor builds the constructor for a class: each instance lazily
// creates one child per call edge, then on every Work invocation drives
// its edges and computes. Payloads are idl.Zeros sizes, not allocations,
// so profiling cost stays proportional to call counts.
func behaviorFor(cs *classSpec, byName map[string]*classSpec) func() com.Object {
	return func() com.Object {
		children := make(map[string]*com.Interface, len(cs.edges))
		return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
			level := int32(0)
			if len(c.Args) > 0 {
				level = int32(c.Args[0].AsInt())
			}
			if c.Method == "Update" {
				// State mutation: no downstream calls, just the write and
				// local compute.
				c.Mutate()
				c.Compute(cs.compute)
				return []idl.Value{idl.Zeros(cs.resBytes)}, nil
			}
			if cs.factoryFor != "" {
				// Dynamic factory: mint a fresh product and hand its
				// interface back to the caller.
				inst, err := c.Create(clsidOf(cs.factoryFor))
				if err != nil {
					return nil, err
				}
				itf, err := c.Env.Query(inst, iidOf(cs.factoryFor))
				if err != nil {
					return nil, err
				}
				c.Compute(cs.compute)
				return []idl.Value{idl.IfacePtr(itf)}, nil
			}
			for _, e := range cs.edges {
				child, ok := children[e.target]
				if !ok {
					inst, err := c.Create(clsidOf(e.target))
					if err != nil {
						return nil, err
					}
					if child, err = c.Env.Query(inst, iidOf(e.target)); err != nil {
						return nil, err
					}
					children[e.target] = child
				}
				tgt := byName[e.target]
				args := callArgs(tgt, level-1, e.argBytes)
				for k := 0; k < e.calls; k++ {
					out, err := c.Invoke(child, "Work", args...)
					if err != nil {
						return nil, err
					}
					if e.fanCalls > 0 {
						worker, ok := out[0].Iface.(*com.Interface)
						if !ok {
							return nil, fmt.Errorf("synthapp: factory %s returned no interface", e.target)
						}
						product := byName[tgt.factoryFor]
						fanArgs := callArgs(product, level-2, e.fanBytes)
						for j := 0; j < e.fanCalls; j++ {
							if _, err := c.Invoke(worker, "Work", fanArgs...); err != nil {
								return nil, err
							}
						}
					}
				}
			}
			c.Compute(cs.compute)
			if cs.opaqueResult {
				// Hand the caller an opaque handle into this instance's
				// memory — the runtime marks the call non-remotable.
				return []idl.Value{idl.OpaquePtr("blob:" + cs.name)}, nil
			}
			return []idl.Value{idl.Zeros(cs.resBytes)}, nil
		})
	}
}

// callArgs assembles the argument list for a Work call on a target class,
// carrying a payload of the given size.
func callArgs(tgt *classSpec, level int32, payload int) []idl.Value {
	if level < 0 {
		level = 0
	}
	if tgt.opaque {
		return []idl.Value{idl.Int32(level), idl.Zeros(payload), idl.OpaquePtr(tgt.handle)}
	}
	return []idl.Value{idl.Int32(level), idl.Zeros(payload)}
}

// runSteps is the scenario interpreter the generated Main delegates to.
// The scenario seed jitters payload sizes (within ±1/8) so distinct seeds
// produce distinct profiles while one seed replays identically.
func runSteps(env *com.Env, steps []step, byName map[string]*classSpec, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, st := range steps {
		cs := byName[st.class]
		for i := 0; i < st.instances; i++ {
			inst, err := env.CreateInstance(nil, clsidOf(st.class))
			if err != nil {
				return err
			}
			itf, err := env.Query(inst, iidOf(st.class))
			if err != nil {
				return err
			}
			for k := 0; k < st.calls; k++ {
				n := st.payload
				if n > 8 {
					n += rng.Intn(st.payload/4+1) - st.payload/8
				}
				args := callArgs(cs, 8, n)
				if _, err := env.Call(nil, itf, "Work", args...); err != nil {
					return err
				}
			}
			for u := 0; u < st.updates; u++ {
				args := []idl.Value{idl.Int32(8), idl.Zeros(st.payload)}
				if _, err := env.Call(nil, itf, "Update", args...); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
