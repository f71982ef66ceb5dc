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
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/binimg"
	"repro/internal/classset"
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

	// num numbers the registry Scan ran over; sets holds, in its ids, the
	// (creator, target) site pairs in rows [0, n), the (src, dst) edge
	// pairs in rows [n, 2n), then the reachable and the dynamic classes.
	// edgeIDs is Edges in ids. All are zero in a hand-built graph.
	num     *classset.Numbering
	sets    classset.Matrix
	edgeIDs [][2]int32
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

	num := classset.New(app.Classes)
	n := num.Len()
	g := &Graph{App: img.AppName, num: num, sets: classset.NewMatrix(2*n+2, n)}
	reachable, dynamic := g.sets.Row(2*n), g.sets.Row(2*n+1)
	fp := newFixedPoint(num, app, dynamic)

	// Pass 2: activation reachability. Starting from the main program's
	// roots, every mentioned class is activatable, and its own record's
	// mentions become activatable in turn. An activation hands the creator
	// a reference to the new instance (and QueryInterface reaches all of
	// its interfaces): the interface flows' seeds.
	type workItem struct {
		creator int    // class id or the main program's
		key     string // record key (CLSID string or binimg.MainRelocName)
	}
	queue := make([]workItem, 1, n)
	queue[0] = workItem{creator: num.Main(), key: binimg.MainRelocName}
	visited := make(classset.Set, classset.Words(n))
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		rec := records[item.key] // zero when the creator activates nothing
		if rec.Dynamic {
			dynamic.Add(item.creator)
		}
		var prov string
		for _, clsid := range rec.Targets {
			target := app.Classes.Lookup(clsid)
			if target == nil {
				g.UnknownTargets = append(g.UnknownTargets, string(clsid))
				continue
			}
			t := num.ID(target.Name)
			if g.sets.Row(item.creator).Add(t) {
				if prov == "" {
					prov = "relocation record " + binimg.RelocPrefix + item.key
				}
				g.Sites = append(g.Sites, Site{
					Creator:    num.Name(item.creator),
					Target:     target.Name,
					CLSID:      clsid,
					Provenance: prov,
				})
				fp.seed(item.creator, t, clsid)
			}
			reachable.Add(t)
			if visited.Add(t) {
				queue = append(queue, workItem{creator: t, key: string(clsid)})
			}
		}
	}

	// Pass 3: interface-flow fixed point.
	fp.run()
	g.edgesFrom(fp)

	if k := reachable.Len(); k > 0 {
		g.Reachable = make([]string, 0, k)
	}
	for id := reachable.Next(0); id >= 0; id = reachable.Next(id + 1) {
		g.Reachable = append(g.Reachable, num.Name(id))
	}
	for id := range n {
		if id != num.Main() && !reachable.Has(id) {
			g.Unreachable = append(g.Unreachable, num.Name(id))
		}
	}
	for id := dynamic.Next(0); id >= 0; id = dynamic.Next(id + 1) {
		g.DynamicCreators = append(g.DynamicCreators, num.Name(id))
	}
	slices.Sort(g.UnknownTargets)
	g.UnknownTargets = slices.Compact(g.UnknownTargets)
	slices.SortFunc(g.Sites, func(a, b Site) int {
		return cmp.Or(strings.Compare(a.Creator, b.Creator), strings.Compare(a.Target, b.Target))
	})
	return g, nil
}

// fixedPoint is the interface-flow closure over dense class ids.
//
// Holds are tracked at object granularity: holds row A has B when class A
// (or the main program) can come to possess an interface pointer to an
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
type fixedPoint struct {
	num     *classset.Numbering
	holds   classset.Matrix
	dynamic classset.Set
	// facts records the first derivation of every hold, in the order
	// derived; the edges read them sorted by (holder, held).
	facts []fact
	// slots holds every interface's flow slots, spans each interface's.
	slots []slot
	spans map[string]span
}

type fact struct {
	holder, class int32
	iid, prov     string
}

// slot is one interface-typed position of a method: a result or an Out
// parameter returns a reference to the caller, an In parameter hands one
// to the callee (InOut does both).
type slot struct {
	iid     string       // the slot's interface type; "" carries any reference
	impl    classset.Set // the classes that can travel in the slot
	returns bool
	iface   string
	method  string
	prov    string // formatted when the slot first derives a hold
}

// provenance returns the slot's derivation text, formatting it once.
func (s *slot) provenance() string {
	if s.prov == "" {
		verb := "received via "
		if s.returns {
			verb = "returned by "
		}
		s.prov = verb + s.iface + "." + s.method
	}
	return s.prov
}

// span is one interface's slots: returns in [lo, mid), accepts in
// [mid, hi).
type span struct{ lo, mid, hi int32 }

// newFixedPoint collects every interface's flow slots in declaration
// order — its return slots method by method (the result, then each Out
// parameter), then its accept slots — and gives each slot the set of
// classes its type admits.
func newFixedPoint(num *classset.Numbering, app *com.App, dynamic classset.Set) *fixedPoint {
	n := num.Len()
	fp := &fixedPoint{num: num, holds: classset.NewMatrix(n, n), dynamic: dynamic}
	iids := app.Interfaces.IIDs()
	fp.spans = make(map[string]span, len(iids))
	rows := make(map[string]int)
	for _, iid := range iids {
		d := app.Interfaces.Lookup(iid)
		sp := span{lo: int32(len(fp.slots))}
		add := func(t *idl.TypeDesc, m *idl.MethodDesc, returns bool) {
			idl.Walk(t, func(t *idl.TypeDesc) bool {
				if t.Kind == idl.KindInterface {
					if _, ok := rows[t.IID]; !ok {
						rows[t.IID] = len(rows)
					}
					fp.slots = append(fp.slots, slot{iid: t.IID, returns: returns, iface: iid, method: m.Name})
				}
				return true
			})
		}
		for mi := range d.Methods {
			m := &d.Methods[mi]
			add(m.Result, m, true)
			for _, p := range m.Params {
				if p.Dir == idl.Out || p.Dir == idl.InOut {
					add(p.Type, m, true)
				}
			}
		}
		sp.mid = int32(len(fp.slots))
		for mi := range d.Methods {
			m := &d.Methods[mi]
			for _, p := range m.Params {
				if p.Dir == idl.In || p.Dir == idl.InOut {
					add(p.Type, m, false)
				}
			}
		}
		sp.hi = int32(len(fp.slots))
		fp.spans[iid] = sp
	}

	// impl: the classes that can travel as each slot type; an untyped slot
	// carries any class.
	impl := classset.NewMatrix(len(rows), n)
	for iid, row := range rows {
		set := impl.Row(row)
		for id := range n {
			if c := num.Class(id); c != nil && (iid == "" || c.Implements(iid)) {
				set.Add(id)
			}
		}
	}
	for i := range fp.slots {
		fp.slots[i].impl = impl.Row(rows[fp.slots[i].iid])
	}
	return fp
}

// add records that holder can hold class, with the first derivation;
// prov is formatted only for a new hold. Reports whether the hold is new.
func (fp *fixedPoint) add(holder, class int, iid string, s *slot) bool {
	if holder == class || !fp.holds.Row(holder).Add(class) {
		return false
	}
	fp.facts = append(fp.facts, fact{int32(holder), int32(class), iid, s.provenance()})
	return true
}

// seed records an activation site's hold.
func (fp *fixedPoint) seed(creator, target int, clsid com.CLSID) {
	if creator != target && fp.holds.Row(creator).Add(target) {
		fp.facts = append(fp.facts, fact{int32(creator), int32(target), fp.firstIID("", target), "activates " + string(clsid)})
	}
}

// firstIID resolves the interface type to report on an edge when the
// flow slot is untyped.
func (fp *fixedPoint) firstIID(iid string, class int) string {
	if iid != "" {
		return iid
	}
	if c := fp.num.Class(class); c != nil && len(c.Interfaces) > 0 {
		return c.Interfaces[0]
	}
	return iid
}

// run closes the holds. For every held reference A -> B and every method
// of B's interfaces:
//   - a return-position interface of type j hands A anything B itself
//     holds that can travel as j (provider-scoped return flow);
//   - an In/InOut interface parameter of type j hands B anything A
//     holds — including A itself — that can travel as j
//     (caller-scoped callback flow).
//
// Dynamic factories provide nothing by return flow: what they build is
// bounded by the requester's own mentions, which already seed the
// requester's holds.
//
// First-wins provenance depends on the visiting order, which is the
// sorted-name order of the string-keyed closure this replaced: each pass
// visits the holders that held something when it began, each holder's
// held classes as they stood when the holder was reached (snap), and
// every inner set as it stands when its loop starts. An inner loop reads
// a row it does not write — B's row while adding to A's, A's while adding
// to B's — so reading it live is reading that snapshot.
func (fp *fixedPoint) run() {
	n := fp.num.Len()
	main := fp.num.Main()
	holders := make([]int, 0, n)
	snap := make(classset.Set, classset.Words(n))
	for changed := true; changed; {
		changed = false
		holders = holders[:0]
		for h := range n {
			if !fp.holds.Row(h).Empty() {
				holders = append(holders, h)
			}
		}
		for _, holder := range holders {
			hs := fp.holds.Row(holder)
			copy(snap, hs)
			for class := snap.Next(0); class >= 0; class = snap.Next(class + 1) {
				cs := fp.holds.Row(class)
				for _, own := range fp.num.Class(class).Interfaces {
					sp := fp.spans[own] // empty for an unregistered interface
					if !fp.dynamic.Has(class) {
						for i := sp.lo; i < sp.mid; i++ {
							s := &fp.slots[i]
							for prov := cs.NextIn(s.impl, 0); prov >= 0; prov = cs.NextIn(s.impl, prov+1) {
								if fp.add(holder, prov, fp.firstIID(s.iid, prov), s) {
									changed = true
								}
							}
						}
					}
					for i := sp.mid; i < sp.hi; i++ {
						s := &fp.slots[i]
						if holder != main && s.impl.Has(holder) {
							if fp.add(class, holder, fp.firstIID(s.iid, holder), s) {
								changed = true
							}
						}
						for x := hs.NextIn(s.impl, 0); x >= 0; x = hs.NextIn(s.impl, x+1) {
							if fp.add(class, x, fp.firstIID(s.iid, x), s) {
								changed = true
							}
						}
					}
				}
			}
		}
	}
}

// edgesFrom derives the static ICC edges: a held reference is a potential
// call path. Dynamic factories are edge-transparent sources (see
// fixedPoint).
func (g *Graph) edgesFrom(fp *fixedPoint) {
	n := g.num.Len()
	reachable, dynamic := g.sets.Row(2*n), g.sets.Row(2*n+1)
	keep := func(f *fact) bool {
		h := int(f.holder)
		return (h == g.num.Main() || reachable.Has(h)) && !dynamic.Has(h) && reachable.Has(int(f.class))
	}
	count := 0
	for i := range fp.facts {
		if keep(&fp.facts[i]) {
			count++
		}
	}
	slices.SortFunc(fp.facts, func(a, b fact) int {
		return cmp.Or(cmp.Compare(a.holder, b.holder), cmp.Compare(a.class, b.class))
	})
	if count == 0 {
		return
	}
	g.Edges = make([]Edge, 0, count)
	g.edgeIDs = make([][2]int32, 0, count)
	for i := range fp.facts {
		f := &fp.facts[i]
		if !keep(f) {
			continue
		}
		g.sets.Row(n + int(f.holder)).Add(int(f.class))
		g.Edges = append(g.Edges, Edge{Src: g.num.Name(int(f.holder)), Dst: g.num.Name(int(f.class)), IID: f.iid, Provenance: f.prov})
		g.edgeIDs = append(g.edgeIDs, [2]int32{f.holder, f.class})
	}
}

// Dense returns the class numbering of reg the graph's ids are in, and
// Edges' (src, dst) in it, -1 for a name it lacks. A graph Scan built
// over reg answers with what Scan computed; any other graph (a hand-built
// one) is numbered now.
func (g *Graph) Dense(reg *com.ClassRegistry) (*classset.Numbering, [][2]int32) {
	if g.num != nil && g.num.Of(reg) {
		return g.num, g.edgeIDs
	}
	num := classset.New(reg)
	ids := make([][2]int32, len(g.Edges))
	for i, e := range g.Edges {
		ids[i] = [2]int32{int32(num.ID(e.Src)), int32(num.ID(e.Dst))}
	}
	return num, ids
}

// has reports whether row (of n) of the graph's sets, offset by the id of
// name a, has the id of name b; false in a hand-built graph.
func (g *Graph) has(row int, a, b string) bool {
	if g.num == nil {
		return false
	}
	i, j := g.num.ID(a), g.num.ID(b)
	return i >= 0 && j >= 0 && g.sets.Row(row*g.num.Len()+i).Has(j)
}

// in reports whether the named class is in set row 2n+k.
func (g *Graph) in(k int, class string) bool {
	if g.num == nil {
		return false
	}
	n := g.num.Len()
	return g.sets.Row(2*n + k).Has(g.num.ID(class))
}

// IsReachable reports whether the class can be activated at all.
func (g *Graph) IsReachable(class string) bool { return g.in(0, class) }

// IsDynamicCreator reports whether the class activates data-computed
// CLSIDs.
func (g *Graph) IsDynamicCreator(class string) bool { return g.in(1, class) }

// HasSite reports whether the static analysis predicts the activation
// site (creator, target).
func (g *Graph) HasSite(creator, target string) bool { return g.has(0, creator, target) }

// HasEdge reports whether the static analysis predicts an ICC edge from
// src to dst (at class-pair level).
func (g *Graph) HasEdge(src, dst string) bool { return g.has(1, src, dst) }

// EffectiveCreator resolves an activation call path (creator class chain,
// innermost frame first) to the class the static analysis attributes the
// site to: the innermost frame that is not a dynamic-activation factory.
// An empty or fully-dynamic path attributes the site to the main program.
func (g *Graph) EffectiveCreator(path []string) string {
	for _, class := range path {
		if !g.IsDynamicCreator(class) {
			return class
		}
	}
	return profile.MainProgram
}
