// Package reach implements a conservative static activation-reachability
// analysis over application binary images.
//
// Coign's scenario-based profiling only sees the activations and
// inter-component communication that the training scenarios exercise
// (paper §4.1 stresses that scenarios must "fully exercise the components
// of each application"). This package answers the dual, static question:
// which activation sites and ICC edges can exist at all? The rewriter
// embeds every class's potential activation targets as relocation records
// (".reloc$<CLSID>" sections, see binimg.EncodeReloc); the scanner here
// takes them as binimg decodes them, joins them with the class registry,
// and propagates interface flows to a fixed point — which class can hold
// which interface, including factory-returned and callback interfaces.
// The result is an over-approximate static ICC graph with per-site
// provenance. Diffing it against profiled scenario data yields a coverage
// report (see Coverage), and statically-reachable-but-unprofiled edges
// become conservative co-location constraints so chosen cuts stay safe on
// untrained paths.
package reach

import (
	"fmt"
	"sort"

	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/profile"
)

// Site is one potential activation site: creator class (or the main
// program) instantiating the target class.
type Site struct {
	Creator    string    `json:"creator"` // class name or profile.MainProgram
	Target     string    `json:"target"`
	CLSID      com.CLSID `json:"clsid"`
	Provenance string    `json:"provenance"`
}

// Edge is one potential ICC edge: the source class holds an interface the
// destination class implements, so a call can flow between them.
type Edge struct {
	Src        string `json:"src"` // class name or profile.MainProgram
	Dst        string `json:"dst"`
	IID        string `json:"iid"`
	Provenance string `json:"provenance"`
}

// Graph is the output of the reachability analysis: every potential
// activation site and ICC edge of the application, over-approximated.
type Graph struct {
	App string `json:"app"`

	// Sites lists every statically known activation site, sorted.
	Sites []Site `json:"sites"`
	// Edges lists every potential ICC edge, sorted.
	Edges []Edge `json:"edges"`
	// Reachable lists the classes that can be activated at all, sorted.
	Reachable []string `json:"reachable"`
	// Unreachable lists registered classes no reachable activation site
	// targets — dead classes profiling can never see.
	Unreachable []string `json:"unreachable,omitempty"`
	// DynamicCreators lists reachable classes whose activation targets are
	// computed at run time (generic factories); an activation performed by
	// one is attributed to the innermost non-factory frame of the
	// activation call path.
	DynamicCreators []string `json:"dynamicCreators,omitempty"`
	// UnknownTargets lists CLSIDs mentioned in relocation records that are
	// absent from the class registry — stale activation metadata.
	UnknownTargets []string `json:"unknownTargets,omitempty"`

	siteIndex map[[2]string]bool // (creator, target)
	edgeIndex map[[2]string]bool // (src, dst) at class-pair level
	reachable map[string]bool
	dynamic   map[string]bool
}

// Scan runs the reachability analysis: it joins the image's activation
// relocation records with the application's class registry, computes the
// set of activatable classes from the main program's activation roots,
// and propagates interface flows to a fixed point.
// Malformed images produce errors, never panics.
func Scan(img *binimg.Image, app *com.App) (*Graph, error) {
	if img == nil {
		return nil, fmt.Errorf("reach: nil image")
	}
	if app == nil || app.Classes == nil || app.Interfaces == nil {
		return nil, fmt.Errorf("reach: reachability analysis requires the class and interface registries")
	}

	// Pass 1: the image's activation records, keyed by creator (CLSID
	// string or the main program).
	records, err := img.Activations()
	if err != nil {
		return nil, fmt.Errorf("reach: %w", err)
	}

	g := &Graph{
		App:       img.AppName,
		siteIndex: make(map[[2]string]bool),
		edgeIndex: make(map[[2]string]bool),
		reachable: make(map[string]bool),
		dynamic:   make(map[string]bool),
	}

	// Pass 2: activation reachability. Starting from the main program's
	// roots, every mentioned class is activatable, and its own record's
	// mentions become activatable in turn.
	unknown := make(map[string]bool)
	type workItem struct {
		creator string // class name or profile.MainProgram
		key     string // record key (CLSID string or binimg.MainRelocName)
	}
	queue := []workItem{{creator: profile.MainProgram, key: binimg.MainRelocName}}
	visited := map[string]bool{binimg.MainRelocName: true}
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		rec := records[item.key] // zero when the creator activates nothing
		if rec.Dynamic {
			g.dynamic[item.creator] = true
		}
		for _, clsid := range rec.Targets {
			target := app.Classes.Lookup(clsid)
			if target == nil {
				unknown[string(clsid)] = true
				continue
			}
			g.addSite(Site{
				Creator:    item.creator,
				Target:     target.Name,
				CLSID:      clsid,
				Provenance: fmt.Sprintf("relocation record %s%s", binimg.RelocPrefix, item.key),
			})
			g.reachable[target.Name] = true
			if !visited[string(clsid)] {
				visited[string(clsid)] = true
				queue = append(queue, workItem{creator: target.Name, key: string(clsid)})
			}
		}
	}

	// Pass 3: interface-flow fixed point. holds[C][iid] records that class
	// C (or the main program) can come to possess an interface pointer of
	// type iid, with the provenance of the first derivation.
	g.propagate(app)

	for name := range g.reachable {
		g.Reachable = append(g.Reachable, name)
	}
	sort.Strings(g.Reachable)
	for _, c := range app.Classes.Classes() {
		if !g.reachable[c.Name] {
			g.Unreachable = append(g.Unreachable, c.Name)
		}
	}
	sort.Strings(g.Unreachable)
	for name := range g.dynamic {
		g.DynamicCreators = append(g.DynamicCreators, name)
	}
	sort.Strings(g.DynamicCreators)
	for clsid := range unknown {
		g.UnknownTargets = append(g.UnknownTargets, clsid)
	}
	sort.Strings(g.UnknownTargets)
	sort.Slice(g.Sites, func(i, j int) bool {
		if g.Sites[i].Creator != g.Sites[j].Creator {
			return g.Sites[i].Creator < g.Sites[j].Creator
		}
		return g.Sites[i].Target < g.Sites[j].Target
	})
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].Src != g.Edges[j].Src {
			return g.Edges[i].Src < g.Edges[j].Src
		}
		if g.Edges[i].Dst != g.Edges[j].Dst {
			return g.Edges[i].Dst < g.Edges[j].Dst
		}
		return g.Edges[i].IID < g.Edges[j].IID
	})
	return g, nil
}

func (g *Graph) addSite(s Site) {
	key := [2]string{s.Creator, s.Target}
	if g.siteIndex[key] {
		return
	}
	g.siteIndex[key] = true
	g.Sites = append(g.Sites, s)
}

// propagate computes the interface-flow fixed point and derives the
// static ICC edges.
//
// Holds are tracked at object granularity: holds[A][B] records that class
// A (or the main program) can come to possess an interface pointer to an
// instance of class B. This follows COM's object-capability discipline —
// a reference only travels through an activation request, a method return
// value, or a method argument — and keeps the over-approximation at the
// class-pair level rather than exploding every holder of an interface
// type into edges to all of its implementors.
//
// Dynamic-activation factories are edge-transparent: their targets (and
// therefore their communication partners) are data, not code, so the
// analysis neither predicts their outgoing edges nor counts observed ones
// as misses. Mention discipline covers the flow instead — the requesting
// class lists the factory-built CLSID in its own relocation record, which
// seeds the requester's holds directly.
func (g *Graph) propagate(app *com.App) {
	type deriv struct{ iid, prov string }
	// holds: holder -> provider class -> first derivation.
	holds := make(map[string]map[string]deriv)
	add := func(holder, class string, d deriv) bool {
		if holder == class {
			return false
		}
		m := holds[holder]
		if m == nil {
			m = make(map[string]deriv)
			holds[holder] = m
		}
		if _, ok := m[class]; ok {
			return false
		}
		m[class] = d
		return true
	}

	classByName := make(map[string]*com.Class)
	for _, c := range app.Classes.Classes() {
		classByName[c.Name] = c
	}
	// implements reports whether the class can travel as the given
	// interface type; an untyped slot ("") carries any reference.
	implements := func(class, iid string) bool {
		c := classByName[class]
		return c != nil && (iid == "" || c.Implements(iid))
	}
	// firstIID resolves the interface type to report on an edge when the
	// flow slot is untyped.
	firstIID := func(iid, class string) string {
		if iid != "" {
			return iid
		}
		if c := classByName[class]; c != nil && len(c.Interfaces) > 0 {
			return c.Interfaces[0]
		}
		return iid
	}

	// Interface types referenced by a method in each flow direction.
	returnsOf := make(map[string][]struct{ iid, prov string })
	acceptsOf := make(map[string][]struct{ iid, prov string })
	for _, iid := range app.Interfaces.IIDs() {
		d := app.Interfaces.Lookup(iid)
		for mi := range d.Methods {
			m := &d.Methods[mi]
			for _, out := range interfaceIIDs(m.Result) {
				returnsOf[iid] = append(returnsOf[iid], struct{ iid, prov string }{
					out, fmt.Sprintf("returned by %s.%s", iid, m.Name)})
			}
			for _, p := range m.Params {
				ids := interfaceIIDs(p.Type)
				if p.Dir == idl.Out || p.Dir == idl.InOut {
					for _, out := range ids {
						returnsOf[iid] = append(returnsOf[iid], struct{ iid, prov string }{
							out, fmt.Sprintf("returned by %s.%s", iid, m.Name)})
					}
				}
				if p.Dir == idl.In || p.Dir == idl.InOut {
					for _, in := range ids {
						acceptsOf[iid] = append(acceptsOf[iid], struct{ iid, prov string }{
							in, fmt.Sprintf("received via %s.%s", iid, m.Name)})
					}
				}
			}
		}
	}

	sortedKeys := func(m map[string]deriv) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}

	// Seed: an activation hands the creator a reference to the new
	// instance (and QueryInterface reaches all of its interfaces).
	for _, s := range g.Sites {
		if c := classByName[s.Target]; c != nil {
			add(s.Creator, s.Target, deriv{firstIID("", s.Target), fmt.Sprintf("activates %s", s.CLSID)})
		}
	}

	// Fixed point. For every held reference A -> B and every method of
	// B's interfaces:
	//   - a return-position interface of type j hands A anything B itself
	//     holds that can travel as j (provider-scoped return flow);
	//   - an In/InOut interface parameter of type j hands B anything A
	//     holds — including A itself — that can travel as j
	//     (caller-scoped callback flow).
	// Dynamic factories provide nothing by return flow: what they build is
	// bounded by the requester's own mentions, which already seed the
	// requester's holds.
	for changed := true; changed; {
		changed = false
		holders := make([]string, 0, len(holds))
		for h := range holds {
			holders = append(holders, h)
		}
		sort.Strings(holders)
		for _, holder := range holders {
			for _, class := range sortedKeys(holds[holder]) {
				c := classByName[class]
				if c == nil {
					continue
				}
				for _, own := range c.Interfaces {
					if !g.dynamic[class] {
						for _, r := range returnsOf[own] {
							for _, prov := range sortedKeys(holds[class]) {
								if !implements(prov, r.iid) {
									continue
								}
								if add(holder, prov, deriv{firstIID(r.iid, prov), r.prov}) {
									changed = true
								}
							}
						}
					}
					for _, a := range acceptsOf[own] {
						if holder != profile.MainProgram && implements(holder, a.iid) {
							if add(class, holder, deriv{firstIID(a.iid, holder), a.prov}) {
								changed = true
							}
						}
						for _, x := range sortedKeys(holds[holder]) {
							if !implements(x, a.iid) {
								continue
							}
							if add(class, x, deriv{firstIID(a.iid, x), a.prov}) {
								changed = true
							}
						}
					}
				}
			}
		}
	}

	// Edges: a held reference is a potential call path. Dynamic factories
	// are edge-transparent sources (see above).
	holders := make([]string, 0, len(holds))
	for h := range holds {
		holders = append(holders, h)
	}
	sort.Strings(holders)
	for _, holder := range holders {
		if holder != profile.MainProgram && !g.reachable[holder] {
			continue
		}
		if g.dynamic[holder] {
			continue
		}
		for _, class := range sortedKeys(holds[holder]) {
			if !g.reachable[class] {
				continue
			}
			key := [2]string{holder, class}
			if g.edgeIndex[key] {
				continue
			}
			g.edgeIndex[key] = true
			d := holds[holder][class]
			g.Edges = append(g.Edges, Edge{Src: holder, Dst: class, IID: d.iid, Provenance: d.prov})
		}
	}
}

// interfaceIIDs collects the IIDs of every interface pointer reachable in
// a type tree (directly, or nested in structs and arrays).
func interfaceIIDs(t *idl.TypeDesc) []string {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case idl.KindInterface:
		return []string{t.IID}
	case idl.KindStruct:
		var out []string
		for _, f := range t.Fields {
			out = append(out, interfaceIIDs(f.Type)...)
		}
		return out
	case idl.KindArray:
		return interfaceIIDs(t.Elem)
	}
	return nil
}

// IsReachable reports whether the class can be activated at all.
func (g *Graph) IsReachable(class string) bool { return g.reachable[class] }

// IsDynamicCreator reports whether the class activates data-computed
// CLSIDs.
func (g *Graph) IsDynamicCreator(class string) bool { return g.dynamic[class] }

// HasSite reports whether the static analysis predicts the activation
// site (creator, target).
func (g *Graph) HasSite(creator, target string) bool {
	return g.siteIndex[[2]string{creator, target}]
}

// HasEdge reports whether the static analysis predicts an ICC edge from
// src to dst (at class-pair level).
func (g *Graph) HasEdge(src, dst string) bool {
	return g.edgeIndex[[2]string{src, dst}]
}

// EffectiveCreator resolves an activation call path (creator class chain,
// innermost frame first) to the class the static analysis attributes the
// site to: the innermost frame that is not a dynamic-activation factory.
// An empty or fully-dynamic path attributes the site to the main program.
func (g *Graph) EffectiveCreator(path []string) string {
	for _, class := range path {
		if !g.dynamic[class] {
			return class
		}
	}
	return profile.MainProgram
}
