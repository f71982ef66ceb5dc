package graph

import (
	"math"
	"time"
)

// The oracle: the same exact two-way minimum cut by BFS augmenting paths
// (Edmonds–Karp) over a naive adjacency-list network, with a union-find
// cut extractor of its own. Nothing in this file is reachable from the
// production path and nothing here calls into it — the two share only the
// Graph's store and accessors and newCut, which holds each cut to its own
// solver's flow, so agreement between them is evidence rather than a
// tautology. It is also the baseline of the min-cut ablation benchmark.

// MinCutEdmondsKarp computes the minimum cut with the oracle.
func (g *Graph) MinCutEdmondsKarp() (*Cut, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f, err := g.build()
	if err != nil {
		return nil, err
	}
	flow := f.maxFlowEdmondsKarp()
	return g.extractCutSides(f.minCutSides(), flow)
}

// flowNet is a residual network over the graph's nodes plus two terminals.
type flowNet struct {
	n    int
	s, t int
	// arcs[u] lists outgoing arcs; arc.rev is the index of the reverse arc
	// in arcs[arc.to].
	arcs [][]arc
}

type arc struct {
	to  int
	rev int
	cap time.Duration
}

// addArc installs an arc u->v of capacity c and its residual v->u of
// capacity back: back == c for an undirected edge, 0 for a directed one.
func (f *flowNet) addArc(u, v int, c, back time.Duration) {
	f.arcs[u] = append(f.arcs[u], arc{to: v, rev: len(f.arcs[v]), cap: c})
	f.arcs[v] = append(f.arcs[v], arc{to: u, rev: len(f.arcs[u]) - 1, cap: back})
}

// build constructs the flow network for a two-way cut: graph nodes plus a
// source terminal (client) and sink terminal (server); pins become
// infinite-capacity terminal arcs and co-location constraints
// infinite-capacity node-to-node edges, "infinite" being the finite
// infinity proxy. Arcs go in store order, so the oracle too lands on the
// same cut run after run when several tie.
func (g *Graph) build() (*flowNet, error) {
	n := g.Len()
	f := &flowNet{n: n + 2, s: n, t: n + 1, arcs: make([][]arc, n+2)}
	inf, err := g.infinityProxy(g.pin)
	if err != nil {
		return nil, err
	}
	for i, k := range g.ekey {
		lo, hi := k.nodes()
		f.addArc(lo, hi, g.ew[i], g.ew[i])
	}
	for _, k := range g.coloc {
		lo, hi := k.nodes()
		f.addArc(lo, hi, inf, inf)
	}
	for v, side := range g.pin {
		switch Side(side) {
		case SourceSide:
			f.addArc(f.s, v, inf, 0)
		case SinkSide:
			f.addArc(v, f.t, inf, 0)
		}
	}
	return f, nil
}

func (f *flowNet) maxFlowEdmondsKarp() time.Duration {
	var total time.Duration
	parentArc := make([]int, f.n)
	parentNode := make([]int, f.n)
	for {
		// BFS for a shortest augmenting path.
		for i := range parentNode {
			parentNode[i] = -1
		}
		parentNode[f.s] = f.s
		queue := []int{f.s}
		for len(queue) > 0 && parentNode[f.t] == -1 {
			u := queue[0]
			queue = queue[1:]
			for i := range f.arcs[u] {
				a := &f.arcs[u][i]
				if a.cap > 0 && parentNode[a.to] == -1 {
					parentNode[a.to] = u
					parentArc[a.to] = i
					queue = append(queue, a.to)
				}
			}
		}
		if parentNode[f.t] == -1 {
			return total
		}
		// Find bottleneck.
		bottleneck := time.Duration(math.MaxInt64)
		for v := f.t; v != f.s; v = parentNode[v] {
			a := f.arcs[parentNode[v]][parentArc[v]]
			if a.cap < bottleneck {
				bottleneck = a.cap
			}
		}
		// Augment.
		for v := f.t; v != f.s; v = parentNode[v] {
			a := &f.arcs[parentNode[v]][parentArc[v]]
			a.cap -= bottleneck
			f.arcs[a.to][a.rev].cap += bottleneck
		}
		total += bottleneck
	}
}

// minCutSides returns, after max flow, the set of nodes reachable from s
// in the residual network (the source side of a minimum cut).
func (f *flowNet) minCutSides() []bool {
	seen := make([]bool, f.n)
	queue := []int{f.s}
	seen[f.s] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for i := range f.arcs[u] {
			a := &f.arcs[u][i]
			if a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	return seen
}

// extractCutSides turns a source-side indicator over the graph's nodes
// into a Cut: it applies Coign's free-floating-component rule, and newCut
// holds the sides to the pins and to the Edmonds–Karp flow.
func (g *Graph) extractCutSides(onSource []bool, flow time.Duration) (*Cut, error) {
	// A connected component that touches neither terminal (no pinned node)
	// crosses no cut edge wherever it lands. Coign leaves such
	// free-floating components on the client, where the undistributed
	// application would have run them.
	uf := newUnionFind(g.Len())
	for _, k := range g.ekey {
		uf.union(k.nodes())
	}
	for _, k := range g.coloc {
		uf.union(k.nodes())
	}
	componentPinned := make(map[int]bool)
	for v, side := range g.pin {
		if side != unpinned {
			componentPinned[uf.find(v)] = true
		}
	}
	side := make([]Side, g.Len())
	for i := range side {
		if !onSource[i] && componentPinned[uf.find(i)] {
			side[i] = SinkSide
		}
	}
	return g.newCut(g.pin, side, flow)
}
