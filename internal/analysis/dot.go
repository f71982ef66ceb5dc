package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/com"
	"repro/internal/profile"
)

// WriteDOT renders a distribution in Graphviz DOT form, the shape of the
// paper's Figures 4–8: one node per instance classification (sized by
// instance count), server-side components filled dark, and non-remotable
// interface edges drawn as heavy black lines against the gray of
// distributable edges.
func (r *Result) WriteDOT(w io.Writer, p *profile.Profile, title string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "graph coign {\n")
	fmt.Fprintf(&b, "  label=%q; labelloc=t; fontsize=20;\n", title)
	fmt.Fprintf(&b, "  layout=neato; overlap=false; splines=true;\n")
	fmt.Fprintf(&b, "  node [shape=circle, fontsize=8, width=0.3, fixedsize=false];\n")

	fmt.Fprintf(&b, "  %q [shape=box, label=\"main\"];\n", profile.MainProgram)
	for _, ci := range p.Classifications {
		attrs := []string{fmt.Sprintf("label=%q", fmt.Sprintf("%s\nx%d", ci.Class, ci.Instances))}
		if r.Distribution[ci.ID] == com.Server {
			attrs = append(attrs, "style=filled", "fillcolor=gray25", "fontcolor=white")
		} else {
			attrs = append(attrs, "style=filled", "fillcolor=white")
		}
		fmt.Fprintf(&b, "  %q [%s];\n", ci.ID, strings.Join(attrs, ", "))
	}

	// Aggregate ordered edges into undirected ones for drawing.
	type ekey struct{ a, b string }
	type einfo struct {
		calls        int64
		nonRemotable bool
	}
	undirected := map[ekey]*einfo{}
	for _, e := range p.Edges {
		a, bb := p.Name(e.Src), p.Name(e.Dst)
		if a > bb {
			a, bb = bb, a
		}
		info := undirected[ekey{a, bb}]
		if info == nil {
			info = &einfo{}
			undirected[ekey{a, bb}] = info
		}
		info.calls += e.Calls
		info.nonRemotable = info.nonRemotable || e.NonRemotable
	}
	keys := make([]ekey, 0, len(undirected))
	for k := range undirected {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		info := undirected[k]
		if info.nonRemotable {
			// The black lines of the paper's figures.
			fmt.Fprintf(&b, "  %q -- %q [color=black, penwidth=2.0];\n", k.a, k.b)
		} else {
			fmt.Fprintf(&b, "  %q -- %q [color=gray60];\n", k.a, k.b)
		}
	}
	fmt.Fprintf(&b, "}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
