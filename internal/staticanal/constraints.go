package staticanal

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/com"
)

// The paper's static location rules: a component whose binary imports
// known GUI APIs must execute beside the user's display; a component that
// reaches storage or database services belongs with the data. GUI usage
// dominates storage usage — a component that paints stays on the client no
// matter what it reads.
var (
	// GUIAPIs pin their importers to the client.
	GUIAPIs = map[string]bool{
		com.APIGdiPaint:   true,
		com.APIUserWindow: true,
		com.APIUserInput:  true,
		com.APIClipboard:  true,
		com.APIPrintSpool: true,
	}
	// StorageAPIs pin their importers to the server.
	StorageAPIs = map[string]bool{
		com.APIFileRead:    true,
		com.APIFileWrite:   true,
		com.APIFileOpen:    true,
		com.APIODBCConnect: true,
		com.APIODBCExec:    true,
	}
)

// InferPin applies the per-class location rules and reports the machine
// the class is pinned to, with the rule that fired. Derive calls it for
// every registered class; the pins reach the graph through the
// constraint set alone.
func InferPin(class *com.Class) (com.Machine, string, bool) {
	if class == nil {
		return 0, "", false
	}
	if class.Infrastructure {
		return class.Home, "infrastructure component fixed at its home machine", true
	}
	gui, storage := false, false
	var guiAPI, storageAPI string
	for _, api := range class.APIs {
		if GUIAPIs[api] && !gui {
			gui, guiAPI = true, api
		}
		if StorageAPIs[api] && !storage {
			storage, storageAPI = true, api
		}
	}
	switch {
	case gui:
		return com.Client, "imports GUI system service " + guiAPI, true
	case storage:
		return com.Server, "imports storage system service " + storageAPI, true
	default:
		return 0, "", false
	}
}

// Pin is an absolute location constraint on a component class.
type Pin struct {
	Class   string      `json:"class"`
	Machine com.Machine `json:"machine"`
	Reason  string      `json:"reason"`
}

// Pair is a pair-wise co-location constraint between two component
// classes: whenever instances of the two communicate, they must share a
// machine.
type Pair struct {
	A      string `json:"a"`
	B      string `json:"b"`
	IID    string `json:"iid"`
	Reason string `json:"reason"`
}

// ConstraintSet is the static analyzer's output: everything the
// graph-cutting algorithms must honor, as first-class inspectable
// metadata.
type ConstraintSet struct {
	App string `json:"app"`
	// Pins maps class names to absolute location constraints.
	Pins map[string]Pin `json:"pins"`
	// Pairs lists class-level pair-wise co-location constraints.
	Pairs []Pair `json:"pairs"`
	// Interfaces holds the remotability classification of every
	// interface, keyed by IID.
	Interfaces map[string]*InterfaceReport `json:"interfaces"`
	// CoveragePairs lists conservative co-location pairs derived from the
	// reachability coverage diff: statically possible ICC edges the
	// training scenarios never exercised. Unlike Pairs they do not reflect
	// remotability — crossing them is legal, just unpriced — so they weld
	// graph edges but are not enforced by CheckCut.
	CoveragePairs []Pair `json:"coveragePairs,omitempty"`
	// AliasPairs lists co-location pairs added by the points-to
	// refinement (see Refined): class pairs that share mutable state
	// without a common non-remotable interface — the payload travelled
	// through an intermediary — and therefore must co-locate even though
	// the clique rule never saw them.
	AliasPairs []Pair `json:"aliasPairs,omitempty"`

	// classes is the application's class registry, read for the
	// interfaces each class implements.
	classes *com.ClassRegistry
	// fullyNonRemotable marks classes whose entire interface surface is
	// non-remotable: any call into such a class welds caller to callee.
	fullyNonRemotable map[string]bool
	// pairIndex indexes Pairs for O(1) lookups.
	pairIndex map[[2]string]string
	// coverageIndex indexes CoveragePairs (unordered class pairs).
	coverageIndex map[[2]string]bool

	// refiner, conditional, and aliasIndex are set by Refined: the
	// points-to refinement that replaces opaque-payload cliques with
	// truly-aliasing pairs.
	refiner OpaqueRefiner
	// conditional marks classes whose fullyNonRemotable verdict is
	// attributable entirely to opaque payloads: calls into them weld only
	// when caller and callee truly share mutable state.
	conditional map[string]bool
	// aliasIndex indexes AliasPairs (ordered class pairs -> reason).
	aliasIndex map[[2]string]string
}

// Derive runs the constraint-derivation pass over the class registry and
// the interface classification: the location rules pin each class, and
// the implementors of each non-remotable interface become co-location
// pairs.
func Derive(app string, reg *com.ClassRegistry, reports map[string]*InterfaceReport) *ConstraintSet {
	cs := &ConstraintSet{
		App:               app,
		Pins:              make(map[string]Pin),
		Interfaces:        reports,
		classes:           reg,
		fullyNonRemotable: make(map[string]bool),
		pairIndex:         make(map[[2]string]string),
	}

	nonRemotable := func(iid string) bool {
		r := reports[iid]
		return r != nil && r.Remotability == NonRemotable
	}

	// Location pins from the API-import rules, in name order.
	byName := reg.Classes()
	slices.SortFunc(byName, func(a, b *com.Class) int { return cmp.Compare(a.Name, b.Name) })
	for _, c := range byName {
		if machine, reason, ok := InferPin(c); ok {
			cs.Pins[c.Name] = Pin{Class: c.Name, Machine: machine, Reason: reason}
		}
		// A class every one of whose interfaces is non-remotable cannot be
		// called across a machine boundary at all.
		if len(c.Interfaces) > 0 {
			all := true
			for _, iid := range c.Interfaces {
				if !nonRemotable(iid) {
					all = false
					break
				}
			}
			cs.fullyNonRemotable[c.Name] = all
		}
	}

	// Pair-wise constraints: implementors of a common non-remotable
	// interface exchange its opaque payloads among themselves (the sprite
	// meshes and widget trees of the paper's figures); each pair must
	// co-locate whenever it communicates.
	implementors := make(map[string][]string) // non-remotable IID -> class names, sorted
	for _, c := range byName {
		for _, iid := range c.Interfaces {
			if nonRemotable(iid) {
				implementors[iid] = append(implementors[iid], c.Name)
			}
		}
	}
	iids := make([]string, 0, len(implementors))
	for iid := range implementors {
		iids = append(iids, iid)
	}
	sort.Strings(iids)
	// A pair is redundant when both classes are already pinned to the same
	// machine: the location constraints subsume the co-location.
	coPinned := func(a, b string) bool {
		pa, oka := cs.Pins[a]
		pb, okb := cs.Pins[b]
		return oka && okb && pa.Machine == pb.Machine
	}
	for _, iid := range iids {
		classes := implementors[iid]
		for i := 0; i < len(classes); i++ {
			for j := i + 1; j < len(classes); j++ {
				if coPinned(classes[i], classes[j]) {
					continue
				}
				cs.addPair(classes[i], classes[j], iid,
					fmt.Sprintf("both implement non-remotable interface %s", iid))
			}
		}
	}
	return cs
}

func (cs *ConstraintSet) addPair(a, b, iid, reason string) {
	key := [2]string{a, b}
	if a > b {
		key = [2]string{b, a}
	}
	if _, dup := cs.pairIndex[key]; dup {
		return
	}
	cs.pairIndex[key] = iid
	cs.Pairs = append(cs.Pairs, Pair{A: key[0], B: key[1], IID: iid, Reason: reason})
}

// AddCoveragePair records a conservative co-location pair between two
// classes, typically from the reachability coverage diff (see package
// reach). Pairs already covered by a remotability constraint or a
// previous coverage pair are not duplicated. Reports whether the pair was
// added.
func (cs *ConstraintSet) AddCoveragePair(a, b, iid, reason string) bool {
	if a == b || a == "" || b == "" {
		return false
	}
	key := [2]string{a, b}
	if a > b {
		key = [2]string{b, a}
	}
	if _, dup := cs.pairIndex[key]; dup {
		return false
	}
	if cs.coverageIndex == nil {
		cs.coverageIndex = make(map[[2]string]bool)
	}
	if cs.coverageIndex[key] {
		return false
	}
	cs.coverageIndex[key] = true
	cs.CoveragePairs = append(cs.CoveragePairs, Pair{A: key[0], B: key[1], IID: iid, Reason: reason})
	return true
}

// PinFor returns the location constraint for a class name, if any.
func (cs *ConstraintSet) PinFor(class string) (Pin, bool) {
	p, ok := cs.Pins[class]
	return p, ok
}

// MustCoLocate reports whether instances of the two classes are forbidden
// from communicating across machines, with the reason. It fires when the
// callee's entire interface surface is non-remotable (every call into it
// is unmarshalable) or when the pair shares a non-remotable interface.
func (cs *ConstraintSet) MustCoLocate(src, dst string) (string, bool) {
	// Only the callee's surface matters: remotability is a property of the
	// interface a call goes through, and src -> dst edges go through dst's
	// interfaces. (A welded component may still hold proxies and call out.)
	if cs.fullyNonRemotable[dst] {
		return fmt.Sprintf("every interface of %s is non-remotable", dst), true
	}
	// A conditional callee's non-remotability is attributable entirely to
	// its opaque payloads: the refiner decides whether this caller truly
	// shares mutable state with it.
	if cs.conditional[dst] {
		if reason, ok := cs.refiner.SharedMutable(src, dst); ok {
			return reason, true
		}
	}
	key := [2]string{src, dst}
	if src > dst {
		key = [2]string{dst, src}
	}
	if iid, ok := cs.pairIndex[key]; ok {
		return fmt.Sprintf("pair-wise constraint over non-remotable interface %s", iid), true
	}
	if reason, ok := cs.aliasIndex[key]; ok {
		return reason, true
	}
	return "", false
}

// ClassMayPassOpaque reports whether the named class implements an
// interface that can carry unmarshalable calls: non-remotable outright, or
// conditionally remotable with at least one opaque method. Dynamic
// non-remotable evidence at such a class is statically anticipated.
func (cs *ConstraintSet) ClassMayPassOpaque(class string) bool {
	c := cs.classes.LookupName(class)
	if c == nil {
		return false
	}
	for _, iid := range c.Interfaces {
		if r := cs.Interfaces[iid]; r != nil && (r.Remotability == NonRemotable || r.Opaque) {
			return true
		}
	}
	return false
}
