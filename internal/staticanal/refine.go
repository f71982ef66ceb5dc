package staticanal

import (
	"repro/internal/profile"
)

// OpaqueRefiner is the contract a points-to analysis fulfils to refine
// opaque-payload constraints (see package alias). The constraint layer
// stays agnostic of how the sets are computed; it only asks three
// questions — can this call carry an unmarshalable payload, do these two
// classes truly share mutable memory, and which pairs alias at all — and
// requires the answers to survive the zero-miss profile verifier.
type OpaqueRefiner interface {
	// PredictsTransfer reports whether a call from src to dst (class
	// names; src may be profile.MainProgram) can carry an unmarshalable
	// payload. It is the soundness side of the refinement: every
	// profile-observed non-remotable call must be predicted.
	PredictsTransfer(src, dst string) bool
	// SharedMutable reports whether the two classes may hold raw pointers
	// into one mutable abstract location, with the reason. It is the
	// precision side: only such pairs truly require co-location.
	SharedMutable(a, b string) (string, bool)
	// MutablePairs returns every truly-aliasing class pair, each ordered
	// and the list sorted.
	MutablePairs() [][2]string
	// Verify cross-checks PredictsTransfer against profile evidence;
	// misses are SeverityError findings.
	Verify(p *profile.Profile) []Finding
}

// Refined returns a copy of the constraint set with opaque-payload
// cliques replaced by the refiner's truly-aliasing pairs:
//
//   - A pair-wise constraint over an interface whose non-remotability is
//     attributable to its opaque payloads (InterfaceReport.Opaque)
//     survives only when the pair shares mutable state. Pairs over bare
//     [local] interfaces with clean signatures are untouched — their
//     non-remotability has nothing to do with payload aliasing.
//   - A fully-non-remotable class whose entire non-remotable surface is
//     attributable to opaque payloads becomes conditional: calls into it
//     weld only against callers it truly shares mutable state with.
//   - Mutable-sharing pairs no remotability constraint covered are added
//     as AliasPairs — classes aliasing through an intermediary must
//     co-locate even though they never exchange payloads directly.
//
// Pins, coverage pairs, and the interface classification are shared with
// the receiver unchanged. A nil refiner returns the receiver.
func (cs *ConstraintSet) Refined(r OpaqueRefiner) *ConstraintSet {
	if cs == nil || r == nil {
		return cs
	}
	out := &ConstraintSet{
		App:               cs.App,
		Pins:              cs.Pins,
		Interfaces:        cs.Interfaces,
		CoveragePairs:     cs.CoveragePairs,
		classes:           cs.classes,
		refiner:           r,
		fullyNonRemotable: make(map[string]bool),
		conditional:       make(map[string]bool),
		pairIndex:         make(map[[2]string]string),
		aliasIndex:        make(map[[2]string]string),
		coverageIndex:     cs.coverageIndex,
	}

	refinable := func(iid string) bool {
		rep := cs.Interfaces[iid]
		return rep != nil && rep.Opaque
	}

	for _, p := range cs.Pairs {
		if refinable(p.IID) {
			reason, shared := r.SharedMutable(p.A, p.B)
			if !shared {
				continue
			}
			out.addPair(p.A, p.B, p.IID, reason)
			continue
		}
		out.addPair(p.A, p.B, p.IID, p.Reason)
	}

	for class, all := range cs.fullyNonRemotable {
		if !all {
			out.fullyNonRemotable[class] = false
			continue
		}
		if cs.classHasUnrefinableNonRemotable(class) {
			out.fullyNonRemotable[class] = true
		} else {
			out.conditional[class] = true
		}
	}

	coPinned := func(a, b string) bool {
		pa, oka := out.Pins[a]
		pb, okb := out.Pins[b]
		return oka && okb && pa.Machine == pb.Machine
	}
	for _, key := range r.MutablePairs() {
		if _, dup := out.pairIndex[key]; dup {
			continue
		}
		if coPinned(key[0], key[1]) {
			continue
		}
		reason, _ := r.SharedMutable(key[0], key[1])
		out.aliasIndex[key] = reason
		out.AliasPairs = append(out.AliasPairs, Pair{A: key[0], B: key[1], Reason: reason})
	}
	return out
}

// classHasUnrefinableNonRemotable reports whether the class implements a
// non-remotable interface whose verdict is NOT attributable to opaque
// payloads (a bare [local] declaration with clean signatures). Such
// classes stay outside the refinement: their welds have nothing to do
// with payload aliasing.
func (cs *ConstraintSet) classHasUnrefinableNonRemotable(class string) bool {
	c := cs.classes.LookupName(class)
	if c == nil {
		return true // unknown class: stay conservative
	}
	for _, iid := range c.Interfaces {
		if r := cs.Interfaces[iid]; r != nil && r.Remotability == NonRemotable && !r.Opaque {
			return true
		}
	}
	return false
}

// ObservedNonRemotableWeld decides whether a profile edge that carried a
// non-remotable call still welds its endpoints under the refinement. An
// unrefined set always welds (the pre-refinement behavior). A refined
// set clears the weld only when the evidence is fully explained away:
// the points-to analysis predicted the transfer (otherwise the static
// model is missing something and conservatism wins), the callee's
// non-remotability is attributable entirely to opaque payloads, and the
// pair does not truly share mutable state. src and dst are class names;
// empty means the endpoint is unclassified (the main program, or a
// class missing from the model) and the weld is kept.
func (cs *ConstraintSet) ObservedNonRemotableWeld(src, dst string) bool {
	if cs == nil || cs.refiner == nil || src == "" || dst == "" {
		return true
	}
	if !cs.refiner.PredictsTransfer(src, dst) {
		return true
	}
	if cs.classHasUnrefinableNonRemotable(dst) {
		return true
	}
	_, shared := cs.refiner.SharedMutable(src, dst)
	return shared
}
