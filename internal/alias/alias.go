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
	"fmt"
	"sort"
	"strings"

	"repro/internal/binimg"
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
	// sets intersect, sorted, mutable pairs flagged.
	Pairs []SharedPair `json:"sharedState,omitempty"`
	// UnknownClasses lists CLSIDs of state records whose class is absent
	// from the registry — stale state metadata.
	UnknownClasses []string `json:"unknownClasses,omitempty"`

	locIndex        map[string]*Location
	holdings        map[string]map[string]*Holding // class -> location key -> holding
	edgeIndex       map[[2]string]bool             // reach edges, including main-program sources
	opaqueCapable   map[string]bool                // class -> implements an unmarshalable-call interface
	mutablePairs    map[[2]string]string           // ordered pair -> deciding mutable location key
	pairIndex       map[[2]string]*SharedPair
	dynamicCreators map[string]bool // reach's edge-transparent factories
}

func stateKey(class string) string  { return "state:" + class }
func opaqueKey(class string) string { return "opq:" + class }

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

	r := &Result{
		App:            img.AppName,
		UnknownClasses: unknown,
		locIndex:       make(map[string]*Location),
		holdings:       make(map[string]map[string]*Holding),
		edgeIndex:      make(map[[2]string]bool),
		opaqueCapable:  make(map[string]bool),
		mutablePairs:   make(map[[2]string]string),
		pairIndex:      make(map[[2]string]*SharedPair),

		dynamicCreators: make(map[string]bool),
	}
	for _, name := range rg.DynamicCreators {
		r.dynamicCreators[name] = true
	}

	// Pass 2: per-interface opaque flow directions. A method contributes
	// an in-flow when an In/InOut parameter carries an opaque payload
	// (caller → callee) and an out-flow when the result or an Out/InOut
	// parameter does (callee → caller). An interface can carry
	// unmarshalable calls when it has such a method or is declared
	// non-remotable outright.
	type methodFlow struct {
		iid, method string
		in, out     bool
	}
	flowsOf := make(map[string][]methodFlow)
	capable := make(map[string]bool)
	for _, iid := range app.Interfaces.IIDs() {
		d := app.Interfaces.Lookup(iid)
		if !d.Remotable {
			capable[iid] = true
		}
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
				capable[iid] = true
				flowsOf[iid] = append(flowsOf[iid], f)
			}
		}
	}

	classByName := make(map[string]*com.Class)
	descByName := make(map[string]*com.StateDesc)
	var names []string
	for _, c := range app.Classes.Classes() {
		classByName[c.Name] = c
		descByName[c.Name] = states[c.ID]
		names = append(names, c.Name)
		for _, iid := range c.Interfaces {
			if capable[iid] {
				r.opaqueCapable[c.Name] = true
			}
		}
	}
	sort.Strings(names)

	// Seeds: a class with a non-empty declared state block holds pointers
	// into it.
	for _, name := range names {
		if desc := descByName[name]; desc != nil && desc.Bytes > 0 {
			r.add(name, stateKey(name), descByName,
				fmt.Sprintf("declared state block (%d bytes)", desc.Bytes), "")
		}
	}

	// Pass 3: fixed point over the reach graph's call edges. Main-program
	// sources are skipped — the main program is not a component, never
	// moves, and its welds are left to the dynamic evidence. The edge
	// index still records them for transfer prediction.
	for _, e := range rg.Edges {
		r.edgeIndex[[2]string{e.Src, e.Dst}] = true
	}
	for changed := true; changed; {
		changed = false
		for _, e := range rg.Edges {
			if e.Src == profile.MainProgram {
				continue
			}
			dst := classByName[e.Dst]
			if dst == nil || classByName[e.Src] == nil {
				continue
			}
			for _, iid := range dst.Interfaces {
				for _, f := range flowsOf[iid] {
					if f.in {
						// Caller → callee: the caller mints a fresh payload
						// and may pass anything it already holds.
						if r.add(e.Src, opaqueKey(e.Src), descByName,
							fmt.Sprintf("mints opaque payloads passed through %s.%s", f.iid, f.method), "") {
							changed = true
						}
						if r.copyAll(e.Src, e.Dst, descByName,
							fmt.Sprintf("received via opaque in-parameter of %s.%s", f.iid, f.method)) {
							changed = true
						}
					}
					if f.out {
						// Callee → caller: the callee mints a fresh payload
						// and may return anything it already holds.
						if r.add(e.Dst, opaqueKey(e.Dst), descByName,
							fmt.Sprintf("exports opaque payloads through %s.%s", f.iid, f.method), "") {
							changed = true
						}
						if r.copyAll(e.Dst, e.Src, descByName,
							fmt.Sprintf("returned via opaque result of %s.%s", f.iid, f.method)) {
							changed = true
						}
					}
				}
			}
		}
	}

	r.buildReport()
	return r, nil
}

// loc materializes the Location record for a key, deriving the
// mutability verdict from the owner's state descriptor.
func (r *Result) loc(key string, descByName map[string]*com.StateDesc) *Location {
	if l := r.locIndex[key]; l != nil {
		return l
	}
	l := &Location{Key: key}
	switch {
	case strings.HasPrefix(key, "state:"):
		l.Kind = LocState
		l.Class = strings.TrimPrefix(key, "state:")
		desc := descByName[l.Class]
		if desc != nil && len(desc.Writes) > 0 {
			l.Mutable = true
			l.Reason = fmt.Sprintf("state writers declared: %s", strings.Join(desc.Writes, ", "))
		} else {
			l.Reason = "no declared method ever writes the state"
		}
	default:
		l.Kind = LocOpaque
		l.Class = strings.TrimPrefix(key, "opq:")
		desc := descByName[l.Class]
		switch {
		case desc == nil:
			l.Mutable = true
			l.Reason = "owner ships no state descriptor; its allocations are conservatively mutable"
		case len(desc.Writes) > 0:
			l.Mutable = true
			l.Reason = fmt.Sprintf("owner declares state writers (%s)", strings.Join(desc.Writes, ", "))
		default:
			l.Reason = "owner's writer-free state descriptor proves payloads immutable after publication"
		}
	}
	r.locIndex[key] = l
	return l
}

// add records that class may hold a pointer into the location, keeping
// the first derivation. Reports whether the points-to set grew.
func (r *Result) add(class, key string, descByName map[string]*com.StateDesc, via, from string) bool {
	m := r.holdings[class]
	if m == nil {
		m = make(map[string]*Holding)
		r.holdings[class] = m
	}
	if _, ok := m[key]; ok {
		return false
	}
	r.loc(key, descByName)
	m[key] = &Holding{Location: key, Via: via, From: from}
	return true
}

// copyAll propagates every location held by src into dst's set, tagging
// new holdings with the flow's provenance. Iteration is sorted so first
// derivations are deterministic.
func (r *Result) copyAll(src, dst string, descByName map[string]*com.StateDesc, via string) bool {
	keys := make([]string, 0, len(r.holdings[src]))
	for k := range r.holdings[src] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	changed := false
	for _, k := range keys {
		if r.add(dst, k, descByName, via+" from "+src, src) {
			changed = true
		}
	}
	return changed
}

// buildReport freezes the fixed point into the sorted exported slices
// and the pair indexes the refiner queries.
func (r *Result) buildReport() {
	keys := make([]string, 0, len(r.locIndex))
	for k := range r.locIndex {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.Locations = append(r.Locations, *r.locIndex[k])
	}

	holders := make([]string, 0, len(r.holdings))
	for c := range r.holdings {
		holders = append(holders, c)
	}
	sort.Strings(holders)
	for _, c := range holders {
		ca := &ClassAliases{Class: c}
		hks := make([]string, 0, len(r.holdings[c]))
		for k := range r.holdings[c] {
			hks = append(hks, k)
		}
		sort.Strings(hks)
		for _, k := range hks {
			ca.Holdings = append(ca.Holdings, *r.holdings[c][k])
		}
		r.Classes = append(r.Classes, ca)
	}

	for i := 0; i < len(holders); i++ {
		for j := i + 1; j < len(holders); j++ {
			a, b := holders[i], holders[j]
			var shared []string
			for k := range r.holdings[a] {
				if _, ok := r.holdings[b][k]; ok {
					shared = append(shared, k)
				}
			}
			if len(shared) == 0 {
				continue
			}
			sort.Strings(shared)
			pair := SharedPair{A: a, B: b, Locations: shared, Location: shared[0]}
			for _, k := range shared {
				if r.locIndex[k].Mutable {
					pair.Mutable = true
					pair.Location = k
					break
				}
			}
			pair.ChainA = r.chain(a, pair.Location)
			pair.ChainB = r.chain(b, pair.Location)
			r.Pairs = append(r.Pairs, pair)
			key := [2]string{a, b}
			r.pairIndex[key] = &r.Pairs[len(r.Pairs)-1]
			if pair.Mutable {
				r.mutablePairs[key] = pair.Location
			}
		}
	}
	// Re-point pairIndex after all appends (append may have reallocated).
	for i := range r.Pairs {
		r.pairIndex[[2]string{r.Pairs[i].A, r.Pairs[i].B}] = &r.Pairs[i]
	}
}

// chain walks the first-derivation records back to the seed or mint: how
// the class came to hold a pointer into the location.
func (r *Result) chain(class, key string) []string {
	var out []string
	seen := make(map[string]bool)
	for c := class; c != "" && !seen[c]; {
		seen[c] = true
		h := r.holdings[c][key]
		if h == nil {
			break
		}
		out = append(out, fmt.Sprintf("%s: %s", c, h.Via))
		c = h.From
	}
	return out
}

// Shared returns the shared-state entry for a class pair, or nil.
func (r *Result) Shared(a, b string) *SharedPair {
	key := [2]string{a, b}
	if a > b {
		key = [2]string{b, a}
	}
	return r.pairIndex[key]
}

// PredictsTransfer reports whether the analysis predicts that a call
// from src to dst (class names, or profile.MainProgram for src) can
// carry an unmarshalable payload: the reach graph has the edge and the
// callee implements an interface that can carry such calls. It
// over-approximates on purpose — it is the soundness side of the
// refinement, held to zero misses by Verify.
func (r *Result) PredictsTransfer(src, dst string) bool {
	return r.opaqueCapable[dst] && r.edgeIndex[[2]string{src, dst}]
}

// SharedMutable reports whether the two classes may hold pointers into
// one mutable location — the precise co-location criterion — with the
// human-readable reason.
func (r *Result) SharedMutable(a, b string) (string, bool) {
	key := [2]string{a, b}
	if a > b {
		key = [2]string{b, a}
	}
	loc, ok := r.mutablePairs[key]
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s and %s may both hold pointers into mutable location %s (%s)",
		key[0], key[1], loc, r.locIndex[loc].Reason), true
}

// MutablePairs returns every truly-aliasing class pair, sorted — the
// pairs that must co-locate whether or not the profile saw them talk.
func (r *Result) MutablePairs() [][2]string {
	out := make([][2]string, 0, len(r.mutablePairs))
	for k := range r.mutablePairs {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
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
	keys := make([]profile.PairKey, 0, len(p.Edges))
	for k := range p.Edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
	for _, k := range keys {
		if !p.Edges[k].NonRemotable || k.Dst == profile.MainProgram {
			continue
		}
		src := profile.MainProgram
		if k.Src != profile.MainProgram {
			if ci := p.Classifications[k.Src]; ci != nil {
				src = ci.Class
			} else {
				out = append(out, staticanal.Finding{
					Kind: staticanal.KindUnknownClass, Severity: staticanal.SeverityWarning,
					Detail: fmt.Sprintf("non-remotable call from unclassified component %s", k.Src),
				})
				continue
			}
		}
		ci := p.Classifications[k.Dst]
		if ci == nil {
			out = append(out, staticanal.Finding{
				Kind: staticanal.KindUnknownClass, Severity: staticanal.SeverityWarning,
				Detail: fmt.Sprintf("non-remotable call into unclassified component %s", k.Dst),
			})
			continue
		}
		// Dynamic-activation factories are edge-transparent in the reach
		// analysis: their partners are data, not code, so their outgoing
		// edges are statically unpredicted by design and never misses.
		// They stay conservatively welded (PredictsTransfer is false, so
		// ObservedNonRemotableWeld keeps the pin).
		if r.dynamicCreators[src] {
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
					k.Src, k.Dst, src, ci.Class),
			})
		}
	}
	return out
}

// hasOpaque walks a type descriptor to any nesting depth looking for an
// opaque payload. seen guards against recursive descriptors so corrupted
// metadata cannot hang the analyzer.
func hasOpaque(t *idl.TypeDesc) bool {
	return hasOpaqueSeen(t, make(map[*idl.TypeDesc]bool))
}

func hasOpaqueSeen(t *idl.TypeDesc, seen map[*idl.TypeDesc]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	defer delete(seen, t)
	switch t.Kind {
	case idl.KindOpaque:
		return true
	case idl.KindStruct:
		for _, f := range t.Fields {
			if hasOpaqueSeen(f.Type, seen) {
				return true
			}
		}
	case idl.KindArray:
		return hasOpaqueSeen(t.Elem, seen)
	}
	return false
}
