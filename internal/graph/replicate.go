package graph

import "sort"

// Replicate returns a copy of the graph in which every eligible node's
// incident edges are removed, modeling component replication (Papp et
// al., "Replication in Graph Partitioning and Scheduling Problems"): a
// replicated component runs a clone on every machine, so calls into it
// are always machine-local and its ICC edges vanish from the cut
// network. Nodes that are pinned or party to a co-location constraint
// are skipped — a pinned component has one fixed home and a welded
// component must travel with its partner — as are names absent from the
// graph. The second result lists the nodes actually replicated, sorted.
//
// Because the copy has the same node set, pins, and welds but a subset
// of the edges, its minimum cut never exceeds the original's
// (property-tested against the Edmonds–Karp oracle in replicate_test.go).
func (g *Graph) Replicate(eligible []string) (*Graph, []string) {
	c := g.clone()
	welded := make(map[int]bool)
	for _, k := range c.coloc {
		lo, hi := k.nodes()
		welded[lo], welded[hi] = true, true
	}
	drop := make(map[int]bool)
	var replicated []string
	for _, name := range eligible {
		i, ok := c.index[name]
		if !ok || c.pin[i] != unpinned || welded[i] || drop[i] {
			continue
		}
		drop[i] = true
		replicated = append(replicated, name)
	}
	// Filtering in place keeps the survivors in store order.
	kept := 0
	for i, k := range c.ekey {
		if lo, hi := k.nodes(); drop[lo] || drop[hi] {
			continue
		}
		c.ekey[kept], c.ew[kept] = k, c.ew[i]
		kept++
	}
	c.ekey, c.ew = c.ekey[:kept], c.ew[:kept]
	sort.Strings(replicated)
	return c, replicated
}
