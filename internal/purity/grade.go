package purity

import (
	"fmt"
	"sort"

	"repro/internal/profile"
	"repro/internal/staticanal"
)

// Grade levels for profiled components.
type Grade string

// Component grades: Stateless components carry no state at all,
// ReadMostly components carry state that is provably rarely written
// (observed write fraction ≤ θ, or never written), Stateful is the
// conservative default. Only Stateless and ReadMostly components are
// replication-eligible.
const (
	GradeStateless  Grade = "stateless"
	GradeReadMostly Grade = "read-mostly"
	GradeStateful   Grade = "stateful"
)

// DefaultTheta is the default read-mostly threshold: the largest
// observed write fraction still graded ReadMostly.
const DefaultTheta = 0.05

// KindPurityMiss is the verifier's finding kind: the profile observed a
// state mutation through a method the static analysis classified
// read-only — a hard error, same zero-miss discipline as the coverage
// gate.
const KindPurityMiss = "purity-miss"

// ComponentGrade is the grading of one profiled component.
type ComponentGrade struct {
	Classification string  `json:"classification"`
	Class          string  `json:"class"`
	Grade          Grade   `json:"grade"`
	Instances      int64   `json:"instances"`
	Calls          int64   `json:"calls"`
	Writes         int64   `json:"writes"`
	WriteFraction  float64 `json:"writeFraction"`
	Provenance     string  `json:"provenance"`
}

// ReplicationSet lists the replication-eligible components of a grading:
// the typed hand-off the graph layer consumes (see graph.Replicate).
type ReplicationSet struct {
	// Classifications lists eligible classification ids (graph node
	// names), sorted.
	Classifications []string `json:"classifications"`
	// Classes lists the distinct classes behind them, sorted.
	Classes []string `json:"classes,omitempty"`
}

// Grading is the profile-folded output of the purity analysis: every
// profiled component graded, with counts and the replication set.
type Grading struct {
	App         string           `json:"app"`
	Theta       float64          `json:"theta"`
	Components  []ComponentGrade `json:"components"`
	Stateless   int              `json:"stateless"`
	ReadMostly  int              `json:"readMostly"`
	Stateful    int              `json:"stateful"`
	Replication ReplicationSet   `json:"replication"`
}

// Grade folds profile evidence into the static report and grades every
// profiled component. theta ≤ 0 selects DefaultTheta. The main program
// is never graded (it is not a component and never replicates).
func (r *Report) Grade(p *profile.Profile, theta float64) *Grading {
	if theta <= 0 {
		theta = DefaultTheta
	}
	g := &Grading{App: r.App, Theta: theta}

	// Per-classification observed call/write totals.
	calls := make(map[string]int64)
	writes := make(map[string]int64)
	for _, m := range p.Methods {
		id := p.Name(m.Classification)
		calls[id] += m.Calls
		writes[id] += m.Writes
	}

	classes := make(map[string]bool)
	for _, ci := range p.Classifications {
		id := ci.ID
		if id == profile.MainProgram {
			continue
		}
		cg := ComponentGrade{
			Classification: id,
			Class:          ci.Class,
			Instances:      ci.Instances,
			Calls:          calls[id],
			Writes:         writes[id],
		}
		if cg.Calls > 0 {
			cg.WriteFraction = float64(cg.Writes) / float64(cg.Calls)
		}
		info := r.Class(ci.Class)
		switch {
		case info == nil:
			cg.Grade = GradeStateful
			cg.Provenance = "class absent from the static model"
		case info.ReachesImpure:
			cg.Grade = GradeStateful
			cg.Provenance = info.ImpureVia
		case info.unknownMethods() > 0:
			cg.Grade = GradeStateful
			cg.Provenance = fmt.Sprintf("%d method(s) of unknown mutability", info.unknownMethods())
		case info.LocallyPure && info.StateBytes == 0:
			cg.Grade = GradeStateless
			cg.Provenance = "stateless descriptor, every method read-only"
		case info.LocallyPure:
			cg.Grade = GradeReadMostly
			cg.Provenance = fmt.Sprintf("%d state bytes never written by any method", info.StateBytes)
		case cg.Calls == 0:
			cg.Grade = GradeStateful
			cg.Provenance = "declared state writers and no profile evidence of write rarity"
		case cg.WriteFraction <= theta:
			cg.Grade = GradeReadMostly
			cg.Provenance = fmt.Sprintf("observed write fraction %.4f <= theta %.2f over %d calls",
				cg.WriteFraction, theta, cg.Calls)
		default:
			cg.Grade = GradeStateful
			cg.Provenance = fmt.Sprintf("observed write fraction %.4f > theta %.2f", cg.WriteFraction, theta)
		}
		switch cg.Grade {
		case GradeStateless:
			g.Stateless++
		case GradeReadMostly:
			g.ReadMostly++
		default:
			g.Stateful++
		}
		if cg.Grade == GradeStateless || cg.Grade == GradeReadMostly {
			g.Replication.Classifications = append(g.Replication.Classifications, id)
			classes[ci.Class] = true
		}
		g.Components = append(g.Components, cg)
	}
	for c := range classes {
		g.Replication.Classes = append(g.Replication.Classes, c)
	}
	sort.Strings(g.Replication.Classes)
	return g
}

// Verify cross-checks the static purity claims against profile evidence
// with zero-miss discipline: every observed mutation must flow through a
// method the analysis classified mutating (or at worst unknown). A
// mutation through a method claimed read-only is an error — the static
// model lied, and a replica built on that claim would diverge. Mutations
// through methods or classes the static model cannot resolve are
// warnings.
func (r *Report) Verify(p *profile.Profile) []staticanal.Finding {
	var out []staticanal.Finding
	if p == nil {
		return out
	}
	for _, m := range p.Methods {
		if m.Writes == 0 {
			continue
		}
		id := p.Name(m.Classification)
		ci := p.ClassificationOf(m.Classification)
		if ci == nil {
			out = append(out, staticanal.Finding{
				Kind: staticanal.KindUnknownClass, Severity: staticanal.SeverityWarning,
				Detail: fmt.Sprintf("observed %d mutation(s) on unclassified component %s", m.Writes, id),
			})
			continue
		}
		info := r.Class(ci.Class)
		if info == nil {
			out = append(out, staticanal.Finding{
				Kind: staticanal.KindUnknownClass, Severity: staticanal.SeverityWarning,
				Detail: fmt.Sprintf("observed %d mutation(s) on %s (class %s) absent from the static model",
					m.Writes, id, ci.Class),
			})
			continue
		}
		if info.MethodPurity(m.Method) == ReadOnly {
			out = append(out, staticanal.Finding{
				Kind: KindPurityMiss, Severity: staticanal.SeverityError,
				Detail: fmt.Sprintf("profile observed %d state mutation(s) through %s.%s, which the static analysis classified read-only",
					m.Writes, id, m.Method),
			})
		}
	}
	return out
}
