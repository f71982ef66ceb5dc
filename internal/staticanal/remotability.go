package staticanal

import (
	"fmt"
	"sort"

	"repro/internal/idl"
)

// Remotability classifies an interface's ability to cross machines.
type Remotability int

// Remotability classes, ordered by increasing severity.
const (
	// Remotable interfaces marshal completely; their endpoints may be
	// placed on different machines.
	Remotable Remotability = iota
	// ConditionallyRemotable interfaces look marshalable but reference
	// metadata the analyzer cannot fully resolve (untyped interface
	// pointers, unregistered IIDs, callback cycles). They remote, but the
	// verifier watches them against the dynamic profile.
	ConditionallyRemotable
	// NonRemotable interfaces cannot cross machines: they pass opaque
	// pointers or are declared local. Their endpoints must be co-located.
	NonRemotable
)

// String names the class.
func (r Remotability) String() string {
	switch r {
	case Remotable:
		return "remotable"
	case ConditionallyRemotable:
		return "conditional"
	case NonRemotable:
		return "non-remotable"
	default:
		return fmt.Sprintf("remotability(%d)", int(r))
	}
}

// MarshalText makes the classification readable in JSON reports.
func (r Remotability) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// InterfaceReport is the classification of one interface.
type InterfaceReport struct {
	IID          string       `json:"iid"`
	Remotability Remotability `json:"remotability"`
	// Opaque notes that at least one method signature carries an opaque
	// pointer, so some calls through the interface cannot marshal — even
	// when the interface as a whole is only conditionally remotable.
	Opaque bool `json:"opaque,omitempty"`
	// Reasons lists why the interface was demoted from remotable, one
	// entry per independent cause.
	Reasons []string `json:"reasons,omitempty"`
}

// demote raises the severity of a report and records the cause.
func (ir *InterfaceReport) demote(r Remotability, reason string) {
	if r > ir.Remotability {
		ir.Remotability = r
	}
	ir.Reasons = append(ir.Reasons, reason)
}

// typeScan is the result of walking one type descriptor.
type typeScan struct {
	opaque  bool     // a KindOpaque occurs anywhere in the type
	untyped bool     // an interface pointer with no declared IID occurs
	refs    []string // declared IIDs of referenced interfaces
}

// scanType walks a type descriptor to any nesting depth; idl.Walk's
// path guard keeps a recursive descriptor from hanging the analyzer.
func scanType(t *idl.TypeDesc) typeScan {
	var sc typeScan
	idl.Walk(t, func(t *idl.TypeDesc) bool {
		switch t.Kind {
		case idl.KindOpaque:
			sc.opaque = true
		case idl.KindInterface:
			if t.IID == "" {
				sc.untyped = true
			} else {
				sc.refs = append(sc.refs, t.IID)
			}
		}
		return true
	})
	return sc
}

// ClassifyInterfaces runs the signature-classification pass over every
// registered interface: type-walking each method's parameters and result
// for opaque pointers, unresolvable interface references, and callback
// cycles. The returned map is keyed by IID.
func ClassifyInterfaces(reg *idl.Registry) map[string]*InterfaceReport {
	reports := make(map[string]*InterfaceReport)
	if reg == nil {
		return reports
	}
	iids := reg.IIDs()
	sort.Strings(iids)

	// refGraph records which registered interfaces each interface passes
	// in its signatures, for cycle detection.
	refGraph := make(map[string][]string)

	for _, iid := range iids {
		d := reg.Lookup(iid)
		ir := &InterfaceReport{IID: iid, Remotability: Remotable}
		reports[iid] = ir
		if !d.Remotable {
			ir.demote(NonRemotable, "declared non-remotable ([local]) in the IDL")
		}
		opaqueMethods := 0
		for mi := range d.Methods {
			m := &d.Methods[mi]
			methodOpaque := false
			scanSite := func(t *idl.TypeDesc, site string) {
				sc := scanType(t)
				if sc.opaque {
					// A single opaque method does not forbid remoting the
					// interface: calls through its clean methods still
					// marshal. Only an interface whose every method is
					// unmarshalable welds its endpoints unconditionally.
					methodOpaque = true
					ir.Opaque = true
					ir.demote(ConditionallyRemotable,
						fmt.Sprintf("method %s passes an opaque pointer in %s", m.Name, site))
				}
				if sc.untyped {
					ir.demote(ConditionallyRemotable,
						fmt.Sprintf("method %s passes an untyped interface pointer in %s", m.Name, site))
				}
				for _, ref := range sc.refs {
					if reg.Lookup(ref) == nil {
						ir.demote(ConditionallyRemotable,
							fmt.Sprintf("method %s references unregistered interface %s in %s", m.Name, ref, site))
					} else {
						refGraph[iid] = append(refGraph[iid], ref)
					}
				}
			}
			for pi := range m.Params {
				scanSite(m.Params[pi].Type, "parameter "+paramName(&m.Params[pi], pi))
			}
			scanSite(m.Result, "the result")
			if methodOpaque {
				opaqueMethods++
			}
		}
		if len(d.Methods) > 0 && opaqueMethods == len(d.Methods) {
			ir.demote(NonRemotable, "every method passes an opaque pointer")
		}
	}

	// Callback cycles: interfaces that pass each other in their
	// signatures form re-entrant call patterns. DCOM can remote them, but
	// they are the classic source of undocumented reverse channels, so
	// they are flagged conditionally remotable for the verifier to watch.
	for _, cycle := range findCycles(refGraph) {
		for _, iid := range cycle {
			reports[iid].demote(ConditionallyRemotable,
				fmt.Sprintf("callback cycle through %s", describeCycle(cycle)))
		}
	}
	return reports
}

func paramName(p *idl.ParamDesc, idx int) string {
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("#%d", idx)
}

// findCycles returns the strongly connected components of the interface
// reference graph that contain a cycle (size > 1, or a self-reference),
// each sorted, the list sorted by first element for determinism.
func findCycles(g map[string][]string) [][]string {
	// Tarjan's algorithm, iterative state kept in maps keyed by IID.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var next int
	var out [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sort.Strings(scc)
				out = append(out, scc)
				return
			}
			// Single node: cyclic only if it references itself.
			for _, w := range g[scc[0]] {
				if w == scc[0] {
					out = append(out, scc)
					return
				}
			}
		}
	}

	vertices := make([]string, 0, len(g))
	for v := range g {
		vertices = append(vertices, v)
	}
	sort.Strings(vertices)
	for _, v := range vertices {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func describeCycle(cycle []string) string {
	if len(cycle) == 1 {
		return cycle[0] + " (self-reference)"
	}
	s := cycle[0]
	for _, iid := range cycle[1:] {
		s += " <-> " + iid
	}
	return s
}
