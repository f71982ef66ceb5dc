package reach

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/profile"
	"repro/internal/staticanal"
)

// SiteCoverage is one static activation site with its scenario-coverage
// verdict.
type SiteCoverage struct {
	Site
	Covered bool `json:"covered"`
}

// EdgeCoverage is one static ICC edge with its scenario-coverage verdict.
type EdgeCoverage struct {
	Edge
	Covered bool `json:"covered"`
}

// Miss is an observation the static analysis failed to predict — the
// reverse direction of the coverage diff. Misses indicate stale or
// incomplete activation metadata and should be fixed at the source.
type Miss struct {
	Kind   string `json:"kind"` // "site" or "edge"
	Src    string `json:"src"`
	Dst    string `json:"dst"`
	Detail string `json:"detail"`
}

// Coverage is the diff between the static reachability graph and profiled
// scenario data: which statically possible activation sites and ICC edges
// the training scenarios actually exercised.
type Coverage struct {
	App        string         `json:"app"`
	Classifier string         `json:"classifier,omitempty"`
	Scenarios  []string       `json:"scenarios,omitempty"`
	Sites      []SiteCoverage `json:"sites"`
	Edges      []EdgeCoverage `json:"edges"`
	Misses     []Miss         `json:"misses,omitempty"`
}

// Coverage joins the static graph with a profile. The activation call
// paths recorded per classification (profile.ClassificationInfo.Path) let
// the join attribute each observed activation to its effective creator —
// the innermost non-factory frame — so sites reached through generic
// factories land on the class that requested them.
func (g *Graph) Coverage(p *profile.Profile) *Coverage {
	cov := &Coverage{App: g.App}
	if p != nil {
		cov.Classifier = p.Classifier
		cov.Scenarios = append(cov.Scenarios, p.Scenarios...)
	}

	// Observed activation sites: (effective creator class, target class).
	observedSites := make(map[[2]string]bool)
	// Observed ICC edges at class-pair level.
	observedEdges := make(map[[2]string]bool)
	classOf := func(n int32) string {
		if p.Name(n) == profile.MainProgram {
			return profile.MainProgram
		}
		return p.ClassOf(n)
	}
	if p != nil {
		for _, ci := range p.Classifications {
			creator := g.EffectiveCreator(ci.Path)
			key := [2]string{creator, ci.Class}
			if observedSites[key] {
				continue
			}
			observedSites[key] = true
			if !g.HasSite(creator, ci.Class) {
				detail := "observed activation not statically predicted"
				if !g.IsReachable(ci.Class) {
					detail = "activated class is statically unreachable"
				}
				cov.Misses = append(cov.Misses, Miss{
					Kind: "site", Src: creator, Dst: ci.Class, Detail: detail,
				})
			}
		}
		for _, e := range p.Edges {
			src, dst := classOf(e.Src), classOf(e.Dst)
			if src == "" || dst == "" || src == dst || dst == profile.MainProgram {
				continue
			}
			key := [2]string{src, dst}
			if observedEdges[key] {
				continue
			}
			observedEdges[key] = true
			// A dynamic factory's communication partners are data, not
			// code: the static graph deliberately predicts no out-edges for
			// it, so its observed calls are not metadata staleness.
			if g.IsDynamicCreator(src) {
				continue
			}
			if !g.HasEdge(src, dst) {
				cov.Misses = append(cov.Misses, Miss{
					Kind: "edge", Src: src, Dst: dst,
					Detail: "observed communication not statically predicted",
				})
			}
		}
	}
	sort.Slice(cov.Misses, func(i, j int) bool {
		a, b := &cov.Misses[i], &cov.Misses[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})

	for _, s := range g.Sites {
		cov.Sites = append(cov.Sites, SiteCoverage{
			Site:    s,
			Covered: observedSites[[2]string{s.Creator, s.Target}],
		})
	}
	for _, e := range g.Edges {
		cov.Edges = append(cov.Edges, EdgeCoverage{
			Edge:    e,
			Covered: observedEdges[[2]string{e.Src, e.Dst}],
		})
	}
	return cov
}

// SitesCovered returns (covered, total) activation-site counts.
func (c *Coverage) SitesCovered() (covered, total int) {
	for _, s := range c.Sites {
		total++
		if s.Covered {
			covered++
		}
	}
	return covered, total
}

// EdgesCovered returns (covered, total) ICC-edge counts.
func (c *Coverage) EdgesCovered() (covered, total int) {
	for _, e := range c.Edges {
		total++
		if e.Covered {
			covered++
		}
	}
	return covered, total
}

// Percent is the combined scenario-coverage metric: exercised sites and
// edges over all statically possible ones. An application with no static
// sites or edges is vacuously fully covered.
func (c *Coverage) Percent() float64 {
	sc, st := c.SitesCovered()
	ec, et := c.EdgesCovered()
	if st+et == 0 {
		return 100
	}
	return 100 * float64(sc+ec) / float64(st+et)
}

// UncoveredEdges returns the statically-reachable-but-never-exercised ICC
// edges, the input to conservative co-location constraints.
func (c *Coverage) UncoveredEdges() []Edge {
	var out []Edge
	for _, e := range c.Edges {
		if !e.Covered {
			out = append(out, e.Edge)
		}
	}
	return out
}

// InstallConstraints adds one conservative co-location pair per uncovered
// class-to-class edge to the constraint set: the profile recorded no
// traffic for the edge, so the partitioner has no cost evidence, and the
// safe assumption is that crossing it would be expensive. Edges from the
// main program are reported but never installed — the main program is
// permanently on the client, and welding callees to it would pre-empt the
// cut rather than guard it. Returns the number of pairs added.
func (c *Coverage) InstallConstraints(cs *staticanal.ConstraintSet) int {
	n := 0
	for _, e := range c.UncoveredEdges() {
		if e.Src == profile.MainProgram || e.Dst == profile.MainProgram {
			continue
		}
		reason := fmt.Sprintf("statically reachable ICC edge never exercised by training scenarios (%s)", e.Provenance)
		if cs.AddCoveragePair(e.Src, e.Dst, e.IID, reason) {
			n++
		}
	}
	return n
}

// WriteText renders the coverage report for humans.
func (c *Coverage) WriteText(w io.Writer) error {
	sc, st := c.SitesCovered()
	ec, et := c.EdgesCovered()
	if _, err := fmt.Fprintf(w, "%s: activation coverage %.1f%% (sites %d/%d, edges %d/%d)\n",
		c.App, c.Percent(), sc, st, ec, et); err != nil {
		return err
	}
	for _, s := range c.Sites {
		if s.Covered {
			continue
		}
		if _, err := fmt.Fprintf(w, "  uncovered site: %s -> %s (%s)\n",
			s.Creator, s.Target, s.Provenance); err != nil {
			return err
		}
	}
	for _, e := range c.Edges {
		if e.Covered {
			continue
		}
		if _, err := fmt.Fprintf(w, "  uncovered edge: %s -> %s via %s (%s)\n",
			e.Src, e.Dst, e.IID, e.Provenance); err != nil {
			return err
		}
	}
	for _, m := range c.Misses {
		if _, err := fmt.Fprintf(w, "  static miss (%s): %s -> %s: %s\n",
			m.Kind, m.Src, m.Dst, m.Detail); err != nil {
			return err
		}
	}
	return nil
}
