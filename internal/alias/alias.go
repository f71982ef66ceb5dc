// Package alias implements a flow-insensitive, Andersen-style points-to
// analysis over opaque interface payloads.
//
// Coign pins components that exchange opaque pointers because it cannot
// remote memory they might share. The static stage's clique rule
// over-approximates badly: every class touching an opaque-capable
// interface lands in a pairwise co-location clique, whether or not any
// shared memory actually connects the pair. This package recovers the
// missing precision from artifacts the pipeline already has — IDL method
// signatures (which parameters and results carry opaque payloads and in
// which direction), component state descriptors (which memory exists and
// which methods mutate it), and the reach activation/interface-flow graph
// (which class can call which) — and computes, per class, the set of
// abstract memory locations its raw pointers may reference.
//
// Abstract locations are seeded from state descriptors ("state:<class>",
// the declared instance state block) and from opaque allocations
// ("opq:<class>", payloads a class mints and exports through opaque
// parameters or results). Points-to sets propagate along the reach
// graph's call edges to a fixed point: an opaque in-parameter hands the
// callee everything the caller may hold plus a fresh caller allocation;
// an opaque result or out-parameter hands the caller everything the
// callee may hold plus a fresh callee allocation. Every derivation keeps
// first-wins provenance, so each shared-state verdict carries the chain
// of methods the pointer travelled through.
//
// A location is mutable when its owner declares state writers or ships no
// state descriptor at all (unknown memory is conservatively mutable); a
// writer-free descriptor proves the memory immutable after publication.
// Two classes that may hold pointers into one mutable location truly
// share state and must co-locate; classes that merely exchange immutable
// payloads need not. The Result implements staticanal.OpaqueRefiner, so
// the constraint layer can replace clique pinning with exactly the
// truly-aliasing pairs, and the purity stage can confine transitive
// impurity to may-alias edges. Verify holds the refinement to the same
// zero-miss discipline as the coverage and purity gates: every
// profile-observed non-remotable transfer must be statically predicted.
package alias

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/binimg"
	"repro/internal/classset"
	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/profile"
	"repro/internal/reach"
	"repro/internal/staticanal"
)

// Location kinds.
const (
	// LocState is a class's declared instance state block.
	LocState = "state"
	// LocOpaque is the pool of anonymous allocations a class mints and
	// exports as opaque payloads.
	LocOpaque = "opaque"
)

// KindAliasMiss is the verifier's finding kind: the profile observed a
// non-remotable transfer the points-to analysis did not predict — a hard
// error, same zero-miss discipline as the coverage and purity gates.
const KindAliasMiss = "alias-miss"

// Location is one abstract memory location.
type Location struct {
	Key   string `json:"key"`   // "state:<class>" or "opq:<class>"
	Class string `json:"class"` // owning class
	Kind  string `json:"kind"`  // LocState or LocOpaque
	// Mutable reports that pointers into the location can observe
	// mutation; Reason records why the verdict holds.
	Mutable bool   `json:"mutable"`
	Reason  string `json:"reason"`
}

// Holding records that a class may hold a raw pointer into a location,
// with the first derivation that established it.
type Holding struct {
	Location string `json:"location"`
	Via      string `json:"via"`
	// From names the class the pointer was received from; empty for
	// seeds and freshly minted allocations.
	From string `json:"from,omitempty"`
}

// ClassAliases is the points-to set of one class, sorted by location.
type ClassAliases struct {
	Class    string    `json:"class"`
	Holdings []Holding `json:"holdings"`
}

// SharedPair is one pair of classes whose points-to sets intersect: the
// shared-state report entry. Mutable pairs truly alias and must
// co-locate; immutable pairs only exchange frozen payloads.
type SharedPair struct {
	A string `json:"a"`
	B string `json:"b"`
	// Locations lists every shared location key, sorted.
	Locations []string `json:"locations"`
	// Mutable reports that at least one shared location is mutable;
	// Location names the deciding one (the first mutable location, or the
	// first shared location when none is).
	Mutable  bool   `json:"mutable"`
	Location string `json:"location"`
	// ChainA and ChainB are the provenance chains: how each class came to
	// hold a pointer into the deciding location, one "class: derivation"
	// step per hop, ending at the seed or mint.
	ChainA []string `json:"chainA"`
	ChainB []string `json:"chainB"`
}

// Result is the output of the points-to analysis: every abstract
// location, every class's points-to set, and the shared-state report.
// It implements staticanal.OpaqueRefiner.
type Result struct {
	App string `json:"app"`
	// Locations lists every abstract location the analysis derived,
	// sorted by key.
	Locations []Location `json:"locations,omitempty"`
	// Classes lists the points-to set of every class that holds at least
	// one location, sorted by class name.
	Classes []*ClassAliases `json:"classes,omitempty"`
	// Pairs is the shared-state report: every class pair whose points-to
	// sets intersect, sorted, mutable pairs flagged. Their chains are
	// built on first read (see FillChains).
	Pairs []SharedPair `json:"sharedState,omitempty"`
	// UnknownClasses lists CLSIDs of state records whose class is absent
	// from the registry — stale state metadata.
	UnknownClasses []string `json:"unknownClasses,omitempty"`

	// The points-to sets in reach's class numbering: rows has, per class,
	// the ids of the locations it may hold — opq:<c> is c, state:<c> is
	// n+c, so ascending id is ascending key. edges has the reach graph's
	// (src, dst) pairs, main-program sources included; sets holds the
	// opaque-capable classes, the edge-transparent factories and the
	// classes holding anything; present is the derived locations.
	num     *classset.Numbering
	rows    classset.Matrix
	edges   classset.Matrix
	sets    classset.Matrix
	present classset.Set
	chains  sync.Once
}

func (r *Result) capable() classset.Set { return r.sets.Row(0) }
func (r *Result) dynamic() classset.Set { return r.sets.Row(1) }
func (r *Result) holders() classset.Set { return r.sets.Row(2) }

// methodFlow is one method that passes opaque payloads: in carries them
// caller → callee, out callee → caller. texts are its derivation texts,
// formatted when first needed.
type methodFlow struct {
	iid, method string
	in, out     bool
	texts       [4]string
}

// The derivations a flow can make, indexes into methodFlow.texts.
const (
	mints = iota
	receives
	exports
	returns
)

var flowVerbs = [4]string{
	mints:    "mints opaque payloads passed through ",
	receives: "received via opaque in-parameter of ",
	exports:  "exports opaque payloads through ",
	returns:  "returned via opaque result of ",
}

func (f *methodFlow) text(k int) string {
	if f.texts[k] == "" {
		f.texts[k] = flowVerbs[k] + f.iid + "." + f.method
	}
	return f.texts[k]
}

// flowSpan is one interface's flows, and whether the interface can carry
// unmarshalable calls.
type flowSpan struct {
	lo, hi  int
	capable bool
}

// fact is one derived points-to fact, in ids; from is -1 for seeds and
// mints.
type fact struct {
	class, loc, from int32
	via              string
}

// Scan runs the points-to analysis: it takes the image's state records,
// derives the opaque flow directions of every interface method, and
// propagates points-to sets over the reachability graph's call edges to a
// fixed point. Malformed images produce errors, never panics.
func Scan(img *binimg.Image, app *com.App, rg *reach.Graph) (*Result, error) {
	if img == nil || rg == nil {
		return nil, fmt.Errorf("alias: nil image or reachability graph")
	}
	if app == nil || app.Classes == nil || app.Interfaces == nil {
		return nil, fmt.Errorf("alias: points-to analysis requires the class and interface registries")
	}

	// Pass 1: the image's state records, keyed by CLSID.
	states, err := img.States()
	if err != nil {
		return nil, fmt.Errorf("alias: %w", err)
	}
	var unknown []string
	for clsid := range states {
		if app.Classes.Lookup(clsid) == nil {
			unknown = append(unknown, string(clsid))
		}
	}
	sort.Strings(unknown)

	num, edgeIDs := rg.Dense(app.Classes)
	n := num.Len()
	r := &Result{
		App:            img.AppName,
		UnknownClasses: unknown,
		num:            num,
		rows:           classset.NewMatrix(n, 2*n),
		edges:          classset.NewMatrix(n, n),
		sets:           classset.NewMatrix(3, n),
	}
	for _, name := range rg.DynamicCreators {
		if id := num.ID(name); id >= 0 {
			r.dynamic().Add(id)
		}
	}
	for _, e := range edgeIDs {
		if e[0] >= 0 && e[1] >= 0 {
			r.edges.Row(int(e[0])).Add(int(e[1]))
		}
	}

	// Pass 2: per-interface opaque flow directions. A method contributes
	// an in-flow when an In/InOut parameter carries an opaque payload
	// (caller → callee) and an out-flow when the result or an Out/InOut
	// parameter does (callee → caller). An interface can carry
	// unmarshalable calls when it has such a method or is declared
	// non-remotable outright.
	var flows []methodFlow
	iids := app.Interfaces.IIDs()
	spans := make(map[string]flowSpan, len(iids))
	for _, iid := range iids {
		d := app.Interfaces.Lookup(iid)
		sp := flowSpan{lo: len(flows), capable: !d.Remotable}
		for mi := range d.Methods {
			m := &d.Methods[mi]
			f := methodFlow{iid: iid, method: m.Name, out: hasOpaque(m.Result)}
			for pi := range m.Params {
				p := &m.Params[pi]
				if !hasOpaque(p.Type) {
					continue
				}
				if p.Dir == idl.In || p.Dir == idl.InOut {
					f.in = true
				}
				if p.Dir == idl.Out || p.Dir == idl.InOut {
					f.out = true
				}
			}
			if f.in || f.out {
				sp.capable = true
				flows = append(flows, f)
			}
		}
		sp.hi = len(flows)
		spans[iid] = sp
	}

	// Seeds: a class with a non-empty declared state block holds pointers
	// into it.
	var facts []fact
	for id := range n {
		c := num.Class(id)
		if c == nil {
			continue
		}
		for _, iid := range c.Interfaces {
			if spans[iid].capable {
				r.capable().Add(id)
			}
		}
		if desc := states[c.ID]; desc != nil && desc.Bytes > 0 {
			r.rows.Row(id).Add(n + id)
			facts = append(facts, fact{int32(id), int32(n + id), -1,
				fmt.Sprintf("declared state block (%d bytes)", desc.Bytes)})
		}
	}

	// mint records that class mints its own opaque payloads.
	mint := func(class int, f *methodFlow, k int) bool {
		if !r.rows.Row(class).Add(class) {
			return false
		}
		facts = append(facts, fact{int32(class), int32(class), -1, f.text(k)})
		return true
	}
	// copyAll propagates every location src holds into dst's set. It
	// reads src's row while writing dst's, in ascending id — sorted key
	// order — so first derivations are the sorted closure's; the text is
	// formatted for the first new holding only.
	copyAll := func(src, dst int, f *methodFlow, k int) bool {
		from, to := r.rows.Row(src), r.rows.Row(dst)
		via := ""
		for l := from.Next(0); l >= 0; l = from.Next(l + 1) {
			if to.Add(l) {
				if via == "" {
					via = f.text(k) + " from " + num.Name(src)
				}
				facts = append(facts, fact{int32(dst), int32(l), int32(src), via})
			}
		}
		return via != ""
	}

	// Pass 3: fixed point over the reach graph's call edges. Main-program
	// sources are skipped — the main program is not a component, never
	// moves, and its welds are left to the dynamic evidence. The edge
	// matrix still records them for transfer prediction.
	for changed := true; changed; {
		changed = false
		for _, e := range edgeIDs {
			src, dst := int(e[0]), int(e[1])
			if src < 0 || dst < 0 || num.Class(src) == nil || num.Class(dst) == nil {
				continue
			}
			for _, iid := range num.Class(dst).Interfaces {
				sp := spans[iid]
				for i := sp.lo; i < sp.hi; i++ {
					f := &flows[i]
					if f.in {
						// Caller → callee: the caller mints a fresh payload
						// and may pass anything it already holds.
						if mint(src, f, mints) {
							changed = true
						}
						if copyAll(src, dst, f, receives) {
							changed = true
						}
					}
					if f.out {
						// Callee → caller: the callee mints a fresh payload
						// and may return anything it already holds.
						if mint(dst, f, exports) {
							changed = true
						}
						if copyAll(dst, src, f, returns) {
							changed = true
						}
					}
				}
			}
		}
	}

	r.buildReport(facts, states)
	return r, nil
}

// location derives the Location record of id l from its owner's state
// descriptor.
func (r *Result) location(l int, states map[com.CLSID]*com.StateDesc) Location {
	n := r.num.Len()
	if l >= n {
		c := r.num.Class(l - n)
		loc := Location{Key: "state:" + c.Name, Class: c.Name, Kind: LocState}
		if desc := states[c.ID]; desc != nil && len(desc.Writes) > 0 {
			loc.Mutable = true
			loc.Reason = fmt.Sprintf("state writers declared: %s", strings.Join(desc.Writes, ", "))
		} else {
			loc.Reason = "no declared method ever writes the state"
		}
		return loc
	}
	c := r.num.Class(l)
	loc := Location{Key: "opq:" + c.Name, Class: c.Name, Kind: LocOpaque}
	switch desc := states[c.ID]; {
	case desc == nil:
		loc.Mutable = true
		loc.Reason = "owner ships no state descriptor; its allocations are conservatively mutable"
	case len(desc.Writes) > 0:
		loc.Mutable = true
		loc.Reason = fmt.Sprintf("owner declares state writers (%s)", strings.Join(desc.Writes, ", "))
	default:
		loc.Reason = "owner's writer-free state descriptor proves payloads immutable after publication"
	}
	return loc
}

// buildReport freezes the fixed point into the sorted exported slices.
// Ascending id is sorted order, so every list is read off the sets in
// order; a pair's shared locations are the AND of two rows.
func (r *Result) buildReport(facts []fact, states map[com.CLSID]*com.StateDesc) {
	n := r.num.Len()
	r.present = make(classset.Set, classset.Words(2*n))
	holders := r.holders()
	for c := range n {
		row := r.rows.Row(c)
		if row.Empty() {
			continue
		}
		holders.Add(c)
		for w, x := range row {
			r.present[w] |= x
		}
	}
	if k := r.present.Len(); k > 0 {
		r.Locations = make([]Location, 0, k)
	}
	for l := r.present.Next(0); l >= 0; l = r.present.Next(l + 1) {
		r.Locations = append(r.Locations, r.location(l, states))
	}

	nh := holders.Len()
	if nh == 0 {
		return
	}
	slices.SortFunc(facts, func(a, b fact) int {
		return cmp.Or(cmp.Compare(a.class, b.class), cmp.Compare(a.loc, b.loc))
	})
	held := make([]Holding, len(facts))
	for i, f := range facts {
		held[i] = Holding{Location: r.key(int(f.loc)), Via: f.via}
		if f.from >= 0 {
			held[i].From = r.num.Name(int(f.from))
		}
	}
	classes := make([]ClassAliases, nh)
	r.Classes = make([]*ClassAliases, nh)
	lo := 0
	for i, c := 0, holders.Next(0); c >= 0; i, c = i+1, holders.Next(c+1) {
		hi := lo + r.rows.Row(c).Len()
		classes[i] = ClassAliases{Class: r.num.Name(c), Holdings: held[lo:hi:hi]}
		r.Classes[i] = &classes[i]
		lo = hi
	}

	// Pairs, counted first so the report is allocated once.
	pairs, shared := 0, 0
	for a := holders.Next(0); a >= 0; a = holders.Next(a + 1) {
		for b := holders.Next(a + 1); b >= 0; b = holders.Next(b + 1) {
			if k := r.rows.Row(a).Common(r.rows.Row(b)); k > 0 {
				pairs++
				shared += k
			}
		}
	}
	if pairs == 0 {
		return
	}
	r.Pairs = make([]SharedPair, 0, pairs)
	keys := make([]string, 0, shared)
	for a := holders.Next(0); a >= 0; a = holders.Next(a + 1) {
		ra := r.rows.Row(a)
		for b := holders.Next(a + 1); b >= 0; b = holders.Next(b + 1) {
			rb := r.rows.Row(b)
			first := ra.NextIn(rb, 0)
			if first < 0 {
				continue
			}
			lo := len(keys)
			pair := SharedPair{A: r.num.Name(a), B: r.num.Name(b)}
			for l := first; l >= 0; l = ra.NextIn(rb, l+1) {
				loc := &r.Locations[r.present.Rank(l)]
				keys = append(keys, loc.Key)
				if !pair.Mutable && loc.Mutable {
					pair.Mutable = true
					pair.Location = loc.Key
				}
			}
			if !pair.Mutable {
				pair.Location = keys[lo]
			}
			pair.Locations = keys[lo:len(keys):len(keys)]
			r.Pairs = append(r.Pairs, pair)
		}
	}
}

// key returns the key of derived location l.
func (r *Result) key(l int) string { return r.Locations[r.present.Rank(l)].Key }

// locID returns the id of a derived location's key.
func (r *Result) locID(key string) int {
	if class, ok := strings.CutPrefix(key, "opq:"); ok {
		return r.num.ID(class)
	}
	return r.num.Len() + r.num.ID(strings.TrimPrefix(key, "state:"))
}

// FillChains builds every shared pair's provenance chains, ChainA and
// ChainB, on its first call; WriteJSON calls it, and so must
// any other reader of the chains. Safe for concurrent use.
func (r *Result) FillChains() {
	r.chains.Do(func() {
		for i := range r.Pairs {
			p := &r.Pairs[i]
			l := r.locID(p.Location)
			p.ChainA = r.chain(r.num.ID(p.A), l)
			p.ChainB = r.chain(r.num.ID(p.B), l)
		}
	})
}

// chain walks the first-derivation records back to the seed or mint: how
// the class came to hold a pointer into location l. A holding is derived
// from one made before it, so the walk ends; the step bound only guards
// it.
func (r *Result) chain(class, l int) []string {
	var out []string
	for c, steps := class, 0; c >= 0 && steps < r.num.Len(); steps++ {
		row := r.rows.Row(c)
		if !row.Has(l) {
			break
		}
		h := &r.Classes[r.holders().Rank(c)].Holdings[row.Rank(l)]
		out = append(out, r.num.Name(c)+": "+h.Via)
		if h.From == "" {
			break
		}
		c = r.num.ID(h.From)
	}
	return out
}

// Shared returns the shared-state entry for a class pair, or nil.
func (r *Result) Shared(a, b string) *SharedPair {
	if a > b {
		a, b = b, a
	}
	i := sort.Search(len(r.Pairs), func(i int) bool {
		p := &r.Pairs[i]
		return p.A > a || p.A == a && p.B >= b
	})
	if i < len(r.Pairs) && r.Pairs[i].A == a && r.Pairs[i].B == b {
		return &r.Pairs[i]
	}
	return nil
}

// PredictsTransfer reports whether the analysis predicts that a call
// from src to dst (class names, or profile.MainProgram for src) can
// carry an unmarshalable payload: the reach graph has the edge and the
// callee implements an interface that can carry such calls. It
// over-approximates on purpose — it is the soundness side of the
// refinement, held to zero misses by Verify.
func (r *Result) PredictsTransfer(src, dst string) bool {
	s, d := r.num.ID(src), r.num.ID(dst)
	return s >= 0 && r.capable().Has(d) && r.edges.Row(s).Has(d)
}

// SharedMutable reports whether the two classes may hold pointers into
// one mutable location — the precise co-location criterion — with the
// human-readable reason.
func (r *Result) SharedMutable(a, b string) (string, bool) {
	p := r.Shared(a, b)
	if p == nil || !p.Mutable {
		return "", false
	}
	loc := &r.Locations[r.present.Rank(r.locID(p.Location))]
	return fmt.Sprintf("%s and %s may both hold pointers into mutable location %s (%s)",
		p.A, p.B, p.Location, loc.Reason), true
}

// MutablePairs returns every truly-aliasing class pair, sorted — the
// pairs that must co-locate whether or not the profile saw them talk.
func (r *Result) MutablePairs() [][2]string {
	out := make([][2]string, 0, r.mutableCount())
	for i := range r.Pairs {
		if p := &r.Pairs[i]; p.Mutable {
			out = append(out, [2]string{p.A, p.B})
		}
	}
	return out
}

// mutableCount returns the number of mutable pairs.
func (r *Result) mutableCount() int {
	n := 0
	for i := range r.Pairs {
		if r.Pairs[i].Mutable {
			n++
		}
	}
	return n
}

// Verify cross-checks the points-to prediction against profile evidence
// with zero-miss discipline: every profile edge that carried a
// non-remotable call must be a predicted transfer. A miss is an error —
// refined constraints built on the prediction would have let the cut
// separate two components the runtime cannot split. Unresolvable
// endpoint classes are warnings, as in the remotability cross-check.
func (r *Result) Verify(p *profile.Profile) []staticanal.Finding {
	var out []staticanal.Finding
	if p == nil {
		return out
	}
	for _, e := range p.Edges {
		if !e.NonRemotable || p.Name(e.Dst) == profile.MainProgram {
			continue
		}
		src := profile.MainProgram
		if name := p.Name(e.Src); name != profile.MainProgram {
			if ci := p.ClassificationOf(e.Src); ci != nil {
				src = ci.Class
			} else {
				out = append(out, staticanal.Finding{
					Kind: staticanal.KindUnknownClass, Severity: staticanal.SeverityWarning,
					Detail: fmt.Sprintf("non-remotable call from unclassified component %s", name),
				})
				continue
			}
		}
		ci := p.ClassificationOf(e.Dst)
		if ci == nil {
			out = append(out, staticanal.Finding{
				Kind: staticanal.KindUnknownClass, Severity: staticanal.SeverityWarning,
				Detail: fmt.Sprintf("non-remotable call into unclassified component %s", p.Name(e.Dst)),
			})
			continue
		}
		// Dynamic-activation factories are edge-transparent in the reach
		// analysis: their partners are data, not code, so their outgoing
		// edges are statically unpredicted by design and never misses.
		// They stay conservatively welded (PredictsTransfer is false, so
		// ObservedNonRemotableWeld keeps the pin).
		if r.dynamic().Has(r.num.ID(src)) {
			continue
		}
		// Instance-to-instance calls within one class never weld a class
		// pair — the class is co-located with itself by identity — and the
		// reach graph structurally excludes self-edges, so they are not the
		// analysis's to predict.
		if src == ci.Class {
			continue
		}
		if !r.PredictsTransfer(src, ci.Class) {
			out = append(out, staticanal.Finding{
				Kind: KindAliasMiss, Severity: staticanal.SeverityError,
				Detail: fmt.Sprintf(
					"profile observed a non-remotable call on %s -> %s, but the points-to analysis predicts no opaque transfer from %q to %q",
					p.Name(e.Src), p.Name(e.Dst), src, ci.Class),
			})
		}
	}
	return out
}

// hasOpaque walks a type descriptor to any nesting depth looking for an
// opaque payload.
func hasOpaque(t *idl.TypeDesc) bool {
	return !idl.Walk(t, func(t *idl.TypeDesc) bool { return t.Kind != idl.KindOpaque })
}
