package staticanal

import (
	"fmt"

	"repro/internal/com"
	"repro/internal/profile"
)

// Finding severities.
const (
	// SeverityError marks constraint violations: a chosen partition the
	// runtime could not execute.
	SeverityError = "error"
	// SeverityWarning marks divergences between the static prediction and
	// the dynamic observation (a static pass that misses a dynamic
	// opaque-pointer transfer is a finding, not a crash).
	SeverityWarning = "warning"
)

// Finding kinds.
const (
	// KindStaticMiss: the profile observed a non-remotable call on an
	// edge the static analysis did not predict could carry one.
	KindStaticMiss = "static-miss"
	// KindUnknownClass: the profile references a class absent from the
	// class registry.
	KindUnknownClass = "unknown-class"
	// KindPinViolation: a partition places a pinned classification on the
	// wrong machine.
	KindPinViolation = "pin-violation"
	// KindCoLocationViolation: a partition separates two classifications
	// that a static or dynamic co-location constraint welds together.
	KindCoLocationViolation = "colocation-violation"
)

// Finding is one discrepancy reported by the verifier.
type Finding struct {
	Kind     string `json:"kind"`
	Severity string `json:"severity"`
	Detail   string `json:"detail"`
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Severity, f.Kind, f.Detail)
}

// ErrorCount returns how many findings are errors (not warnings).
func ErrorCount(fs []Finding) int {
	n := 0
	for _, f := range fs {
		if f.Severity == SeverityError {
			n++
		}
	}
	return n
}

// CrossCheck compares the static constraint set against observed dynamic
// ICC: every profile edge that carried a non-remotable call must be
// explicable statically — at least one endpoint class implements a
// statically non-remotable interface. Discrepancies are warnings: the
// static pass missed metadata the execution revealed.
func (cs *ConstraintSet) CrossCheck(p *profile.Profile) []Finding {
	var out []Finding
	if cs == nil || p == nil {
		return out
	}
	for _, e := range p.Edges {
		src, dst := p.Name(e.Src), p.Name(e.Dst)
		srcClass, dstClass := p.ClassOf(e.Src), p.ClassOf(e.Dst)
		// The main program has no class and no static metadata; every
		// other classification must resolve.
		for _, end := range []struct{ id, class string }{{src, srcClass}, {dst, dstClass}} {
			if end.class == "" && end.id != profile.MainProgram {
				out = append(out, Finding{
					Kind: KindUnknownClass, Severity: SeverityWarning,
					Detail: fmt.Sprintf("classification %s has no class in the static model", end.id),
				})
			}
		}
		if !e.NonRemotable {
			continue
		}
		predicted := (dstClass != "" && cs.ClassMayPassOpaque(dstClass)) ||
			(srcClass != "" && cs.ClassMayPassOpaque(srcClass))
		if !predicted {
			out = append(out, Finding{
				Kind: KindStaticMiss, Severity: SeverityWarning,
				Detail: fmt.Sprintf(
					"profile observed a non-remotable call on %s -> %s, but neither %q nor %q implements an interface that passes opaque pointers",
					src, dst, srcClass, dstClass),
			})
		}
	}
	return out
}

// CheckCut verifies a chosen distribution against the constraint set and
// the profile's dynamic co-location evidence: every pin must be honored
// and no welded pair may be split. Violations are errors — such a
// partition could not execute.
func (cs *ConstraintSet) CheckCut(p *profile.Profile, distribution map[string]com.Machine) []Finding {
	var out []Finding
	if cs == nil || p == nil {
		return out
	}
	machineOf := func(id string) com.Machine {
		if id == profile.MainProgram {
			return com.Client // the main program is permanently client-side
		}
		return distribution[id]
	}

	for _, ci := range p.Classifications {
		pin, ok := cs.Pins[ci.Class]
		if !ok {
			continue
		}
		if got := machineOf(ci.ID); got != pin.Machine {
			out = append(out, Finding{
				Kind: KindPinViolation, Severity: SeverityError,
				Detail: fmt.Sprintf("classification %s (class %s) placed on %s, pinned to %s (%s)",
					ci.ID, ci.Class, got, pin.Machine, pin.Reason),
			})
		}
	}

	for _, e := range p.Edges {
		src, dst := p.Name(e.Src), p.Name(e.Dst)
		srcClass, dstClass := p.ClassOf(e.Src), p.ClassOf(e.Dst)
		reason, weld := "", false
		if srcClass != "" && dstClass != "" {
			reason, weld = cs.MustCoLocate(srcClass, dstClass)
		}
		// Dynamic non-remotable evidence welds the edge unless a points-to
		// refinement (see Refined) fully explains it away as an immutable
		// payload exchange.
		if !weld && e.NonRemotable && cs.ObservedNonRemotableWeld(srcClass, dstClass) {
			reason, weld = "profile observed a non-remotable call on the edge", true
		}
		if weld && machineOf(src) != machineOf(dst) {
			out = append(out, Finding{
				Kind: KindCoLocationViolation, Severity: SeverityError,
				Detail: fmt.Sprintf("%s on %s and %s on %s must be co-located: %s",
					src, machineOf(src), dst, machineOf(dst), reason),
			})
		}
	}
	return out
}
