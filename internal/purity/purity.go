// Package purity implements a conservative static state-mutability
// analysis over application binary images.
//
// Replicating a component onto several machines (so its ICC edges vanish
// from the cut network, per Papp et al.) is only sound when the component
// is stateless or read-mostly. This package supplies the static proof:
// the rewriter embeds every class's state declaration as a state record
// (".state$<CLSID>" sections, see binimg.EncodeState); the scanner here
// takes them as binimg decodes them, joins them with per-method IDL
// metadata, and classifies every method read-only, mutating, or unknown
// — unknown is conservatively mutating. A fixed point over the
// reachability analysis's static ICC graph then closes transitive
// impurity: a component that can reach a mutating method is itself
// impure, because a replica invoking it would duplicate the mutation.
// Folding in profile evidence (observed per-method call and write
// counts) grades each profiled component Stateless, ReadMostly(θ), or
// Stateful with per-component provenance and emits the ReplicationSet
// the graph layer consumes (see graph.Replicate). A verifier diffs
// profile-observed mutations against the static read-only claims with
// the same zero-miss discipline as the coverage gate: any observed
// mutation through a method classified read-only is a hard error.
package purity

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/reach"
)

// MethodPurity classifies one method's effect on its instance's state.
type MethodPurity string

// Method purity lattice: ReadOnly < Unknown < Mutating in conservatism;
// Unknown is treated as Mutating everywhere it matters.
const (
	ReadOnly MethodPurity = "read-only"
	Mutating MethodPurity = "mutating"
	Unknown  MethodPurity = "unknown"
)

// MethodInfo is the classification of one method of one class, with the
// provenance of the decision.
type MethodInfo struct {
	Method     string       `json:"method"`
	Purity     MethodPurity `json:"purity"`
	Provenance string       `json:"provenance"`
}

// ClassInfo is the per-class output of the static analysis.
type ClassInfo struct {
	Class         string `json:"class"`
	HasDescriptor bool   `json:"hasDescriptor"`
	StateBytes    int    `json:"stateBytes"`
	// Methods lists every method of the class's interfaces, sorted by
	// name, with its local (pre-propagation) purity.
	Methods []MethodInfo `json:"methods"`
	// LocallyPure reports that every method is read-only before
	// propagation.
	LocallyPure bool `json:"locallyPure"`
	// ReachesImpure reports that the class can reach (via the static ICC
	// graph) another class with a mutating or unknown method.
	ReachesImpure bool `json:"reachesImpure,omitempty"`
	// Impure is LocallyPure's closure: locally impure or reaches impure.
	Impure bool `json:"impure"`
	// ImpureVia records the first derivation of transitive impurity.
	ImpureVia string `json:"impureVia,omitempty"`
}

// MethodPurity returns the local purity of the named method; Unknown for
// methods the analysis never saw.
func (ci *ClassInfo) MethodPurity(name string) MethodPurity {
	i, ok := slices.BinarySearchFunc(ci.Methods, name, func(m MethodInfo, name string) int {
		return strings.Compare(m.Method, name)
	})
	if !ok {
		return Unknown
	}
	return ci.Methods[i].Purity
}

// unknownMethods counts methods whose mutability is unknown.
func (ci *ClassInfo) unknownMethods() int {
	n := 0
	for i := range ci.Methods {
		if ci.Methods[i].Purity == Unknown {
			n++
		}
	}
	return n
}

// Report is the output of the static purity analysis.
type Report struct {
	App string `json:"app"`
	// Classes holds every registered class, sorted by name.
	Classes []*ClassInfo `json:"classes"`
	// UnknownClasses lists CLSIDs of state records whose class is absent
	// from the registry — stale state metadata.
	UnknownClasses []string `json:"unknownClasses,omitempty"`

	// rg is the graph the closure runs over and edges its Edges in
	// indexes of Classes, -1 for the main program or an unregistered
	// class.
	rg    *reach.Graph
	edges [][2]int32
}

// Class returns the per-class analysis for the named class, or nil.
func (r *Report) Class(name string) *ClassInfo {
	i, ok := slices.BinarySearchFunc(r.Classes, name, func(ci *ClassInfo, name string) int {
		return strings.Compare(ci.Class, name)
	})
	if !ok {
		return nil
	}
	return r.Classes[i]
}

// Scan runs the purity analysis: it joins the image's state records with
// the class and interface registries to classify every method, and closes
// transitive impurity over the reachability graph's static ICC edges.
// Malformed images produce errors, never panics.
func Scan(img *binimg.Image, app *com.App, rg *reach.Graph) (*Report, error) {
	if img == nil || rg == nil {
		return nil, fmt.Errorf("purity: nil image or reachability graph")
	}
	if app == nil || app.Classes == nil || app.Interfaces == nil {
		return nil, fmt.Errorf("purity: purity analysis requires the class and interface registries")
	}

	// Pass 1: the image's state records, keyed by CLSID.
	states, err := img.States()
	if err != nil {
		return nil, fmt.Errorf("purity: %w", err)
	}
	var unknown []string
	for clsid := range states {
		if app.Classes.Lookup(clsid) == nil {
			unknown = append(unknown, string(clsid))
		}
	}
	sort.Strings(unknown)

	r := &Report{
		App:            img.AppName,
		UnknownClasses: unknown,
		rg:             rg,
	}

	// Pass 2: local method classification, class by class in name order.
	// A method name is classified once per class even when several
	// interfaces declare it; the IDL cacheable fallback then requires
	// every declaration to be cacheable.
	num, ids := rg.Dense(app.Classes)
	infos := make([]ClassInfo, 0, num.Len()-1)
	cacheable := make(map[string]bool)
	var names []string
	for id := range num.Len() {
		c := num.Class(id)
		if c == nil {
			continue
		}
		desc := states[c.ID]
		ci := ClassInfo{Class: c.Name, HasDescriptor: desc != nil}
		if desc != nil {
			ci.StateBytes = desc.Bytes
		}
		clear(cacheable)
		names = names[:0]
		for _, iid := range c.Interfaces {
			d := app.Interfaces.Lookup(iid)
			if d == nil {
				return nil, fmt.Errorf("purity: class %s implements unregistered interface %s", c.Name, iid)
			}
			for mi := range d.Methods {
				m := &d.Methods[mi]
				if _, seen := cacheable[m.Name]; !seen {
					names = append(names, m.Name)
					cacheable[m.Name] = m.Cacheable
				} else {
					cacheable[m.Name] = cacheable[m.Name] && m.Cacheable
				}
			}
		}
		slices.Sort(names)
		ci.LocallyPure = true
		if len(names) > 0 {
			ci.Methods = make([]MethodInfo, 0, len(names))
		}
		for _, name := range names {
			mi := MethodInfo{Method: name}
			switch {
			case desc != nil && desc.WritesMethod(name):
				mi.Purity = Mutating
				mi.Provenance = "declared state writer"
			case desc != nil && desc.Bytes == 0:
				mi.Purity = ReadOnly
				mi.Provenance = "class declares no state"
			case desc != nil && desc.ReadsMethod(name):
				mi.Purity = ReadOnly
				mi.Provenance = "declared state reader"
			case cacheable[name]:
				mi.Purity = ReadOnly
				mi.Provenance = "IDL marks the method cacheable (results depend only on arguments)"
			case desc != nil:
				mi.Purity = Unknown
				mi.Provenance = "method not covered by the state descriptor"
			default:
				mi.Purity = Unknown
				mi.Provenance = "class ships no state descriptor"
			}
			if mi.Purity != ReadOnly {
				ci.LocallyPure = false
			}
			ci.Methods = append(ci.Methods, mi)
		}
		infos = append(infos, ci)
	}
	r.Classes = pointers(infos)

	// Classes holds every id but the main program's, in order.
	index := func(id int32) int32 {
		switch main := int32(num.Main()); {
		case id < 0 || id == main:
			return -1
		case id > main:
			return id - 1
		}
		return id
	}
	r.edges = make([][2]int32, len(ids))
	for i, e := range ids {
		r.edges[i] = [2]int32{index(e[0]), index(e[1])}
	}
	r.propagate(nil)
	return r, nil
}

// Refined returns the report with an alias-refined impurity closure:
// transitive impurity propagates across an ICC edge only when may(src,
// dst) reports the two classes may hold pointers into shared mutable
// state. The justification is replication with call routing: replicas
// serve read traffic and route downstream calls to the single
// authoritative callee instance, so a replica calling an impure component
// does not duplicate the mutation — the replication hazard is raw
// pointers into memory the callee mutates, which is exactly the may-alias
// relation. The local classification is r's, shared; only the closure is
// derived again, and r is unchanged. may == nil propagates across every
// edge, reproducing r. Because the refinement only removes propagation
// edges, the resulting replication set is always a superset of r's.
func (r *Report) Refined(may func(a, b string) bool) *Report {
	infos := make([]ClassInfo, len(r.Classes))
	for i, ci := range r.Classes {
		infos[i] = *ci
		infos[i].ReachesImpure, infos[i].Impure, infos[i].ImpureVia = false, false, ""
	}
	out := &Report{App: r.App, Classes: pointers(infos), UnknownClasses: r.UnknownClasses, rg: r.rg, edges: r.edges}
	out.propagate(may)
	return out
}

// pointers returns a pointer to each element of infos; nil for none, as
// Classes encodes an application without classes.
func pointers(infos []ClassInfo) []*ClassInfo {
	if len(infos) == 0 {
		return nil
	}
	out := make([]*ClassInfo, len(infos))
	for i := range infos {
		out[i] = &infos[i]
	}
	return out
}

// propagate closes transitive impurity over the static ICC graph: a
// class that holds an interface to an impure class can invoke a mutating
// method on it, so the holder is impure too — the provider-scoped
// propagation dual of reach's interface flows. Edges sourced at the main
// program are skipped (the main program is not a component and is never
// replicated). A non-nil may filter confines propagation to may-alias
// edges (see Refined). Iteration is deterministic: the edge list is
// sorted and the worklist runs to a fixed point.
func (r *Report) propagate(may func(a, b string) bool) {
	impure := make([]bool, len(r.Classes))
	for i, ci := range r.Classes {
		impure[i] = !ci.LocallyPure
	}
	for changed := true; changed; {
		changed = false
		for k, e := range r.edges {
			src, dst := e[0], e[1]
			if src < 0 || dst < 0 || r.Classes[src].ReachesImpure || !impure[dst] {
				continue
			}
			edge := &r.rg.Edges[k]
			if may != nil && !may(edge.Src, edge.Dst) {
				continue
			}
			ci := r.Classes[src]
			ci.ReachesImpure = true
			ci.ImpureVia = "can call impure class " + edge.Dst + " via " + edge.IID
			if !impure[src] {
				impure[src] = true
				changed = true
			}
		}
	}
	for _, ci := range r.Classes {
		ci.Impure = !ci.LocallyPure || ci.ReachesImpure
	}
}
