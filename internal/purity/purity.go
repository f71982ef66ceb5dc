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
	"sort"

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

	methodIndex map[string]*MethodInfo
}

// MethodPurity returns the local purity of the named method; Unknown for
// methods the analysis never saw.
func (ci *ClassInfo) MethodPurity(name string) MethodPurity {
	if m := ci.methodIndex[name]; m != nil {
		return m.Purity
	}
	return Unknown
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

	index map[string]*ClassInfo
}

// Class returns the per-class analysis for the named class, or nil.
func (r *Report) Class(name string) *ClassInfo { return r.index[name] }

// Scan runs the purity analysis: it joins the image's state records with
// the class and interface registries to classify every method, and closes
// transitive impurity over the reachability graph's static ICC edges.
// Malformed images produce errors, never panics.
func Scan(img *binimg.Image, app *com.App, rg *reach.Graph) (*Report, error) {
	return ScanAliased(img, app, rg, nil)
}

// ScanAliased is Scan with an alias-refined impurity closure: when may is
// non-nil, transitive impurity propagates across an ICC edge only when
// may(src, dst) reports the two classes may hold pointers into shared
// mutable state. The justification is replication with call routing:
// replicas serve read traffic and route downstream calls to the single
// authoritative callee instance, so a replica calling an impure component
// does not duplicate the mutation — the replication hazard is raw
// pointers into memory the callee mutates, which is exactly the may-alias
// relation. may == nil propagates across every edge (Scan's behavior).
// Because the refinement only removes propagation edges, the resulting
// replication set is always a superset of the unrefined one.
func ScanAliased(img *binimg.Image, app *com.App, rg *reach.Graph, may func(a, b string) bool) (*Report, error) {
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
		index:          make(map[string]*ClassInfo),
	}

	// Pass 2: local method classification. A method name is classified
	// once per class even when several interfaces declare it; the IDL
	// cacheable fallback then requires every declaration to be cacheable.
	for _, c := range app.Classes.Classes() {
		desc := states[c.ID]
		ci := &ClassInfo{
			Class:         c.Name,
			HasDescriptor: desc != nil,
			methodIndex:   make(map[string]*MethodInfo),
		}
		if desc != nil {
			ci.StateBytes = desc.Bytes
		}
		cacheable := make(map[string]bool)
		var names []string
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
		sort.Strings(names)
		ci.LocallyPure = true
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
		for i := range ci.Methods {
			ci.methodIndex[ci.Methods[i].Method] = &ci.Methods[i]
		}
		r.Classes = append(r.Classes, ci)
		r.index[c.Name] = ci
	}
	sort.Slice(r.Classes, func(i, j int) bool { return r.Classes[i].Class < r.Classes[j].Class })

	r.propagate(rg, may)
	return r, nil
}

// propagate closes transitive impurity over the static ICC graph: a
// class that holds an interface to an impure class can invoke a mutating
// method on it, so the holder is impure too — the provider-scoped
// propagation dual of reach's interface flows. Edges sourced at the main
// program are skipped (the main program is not a component and is never
// replicated). A non-nil may filter confines propagation to may-alias
// edges (see ScanAliased). Iteration is deterministic: the edge list is
// sorted and the worklist runs to a fixed point.
func (r *Report) propagate(rg *reach.Graph, may func(a, b string) bool) {
	impure := make(map[string]bool)
	for _, ci := range r.Classes {
		if !ci.LocallyPure {
			impure[ci.Class] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, e := range rg.Edges {
			ci := r.index[e.Src]
			if ci == nil || ci.ReachesImpure {
				continue
			}
			dst := r.index[e.Dst]
			if dst == nil || !impure[e.Dst] {
				continue
			}
			if may != nil && !may(e.Src, e.Dst) {
				continue
			}
			ci.ReachesImpure = true
			ci.ImpureVia = fmt.Sprintf("can call impure class %s via %s", e.Dst, e.IID)
			if !impure[e.Src] {
				impure[e.Src] = true
				changed = true
			}
		}
	}
	for _, ci := range r.Classes {
		ci.Impure = !ci.LocallyPure || ci.ReachesImpure
	}
}
