// Package graph implements the inter-component communication graph and the
// graph-cutting algorithms Coign uses to choose distributions. There is one
// edge store and one path from a Graph to a Cut:
//
//   - graph.go owns the store: edges as parallel key/weight arrays in
//     (lo, hi) node-index order, co-location welds as a sorted key slice,
//     pins as a per-node side array. Order is established at most once per
//     topology change (settle), never per cut. Weights, capacities, flows
//     and cut costs are integer nanoseconds (time.Duration), the unit the
//     network model and the profile price in, so every sum is exact and a
//     cut's cost equals its max flow with ==.
//   - arena.go is the production cut: CutArena lays its copy of the store
//     out as a flat CSR flow network (csr.go) with no arc list in between,
//     runs highest-label push-relabel over it (hipr.go), and reads the cut
//     off the solver's own reverse BFS from t. MinCut and MinCutCtx are
//     cuts through an arena.
//   - baseline.go is the oracle: Edmonds–Karp on its own adjacency-list
//     network with its own union-find extractor, sharing nothing with the
//     production path but the Graph accessors.
//
// A seeded synthetic-workload generator (synth.go) produces power-law ICC
// graphs up to 100k+ nodes for the cut benchmark harness.
//
// A Graph is not safe for concurrent mutation. Reads are safe from several
// goroutines once any read (or cut) has completed after the last mutation:
// the first read after an AddEdge or CoLocate puts the store in order.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Side identifies which terminal a node lands with after a two-way cut. It
// is one byte, so a cut's side vector is one byte per node.
type Side int8

// Cut sides.
const (
	SourceSide Side = 0 // the client in Coign's usage
	SinkSide   Side = 1 // the server
)

// unpinned marks a node without a location constraint in a per-node pin
// array; pinned nodes hold int8(Side).
const unpinned int8 = -1

// pairKey packs an unordered node pair as lo<<32 | hi, so integer order is
// (lo, hi) index order.
type pairKey uint64

func makePair(i, j int) pairKey {
	if i > j {
		i, j = j, i
	}
	return pairKey(i)<<32 | pairKey(j)
}

func (k pairKey) nodes() (lo, hi int) { return int(k >> 32), int(uint32(k)) }

// Graph is an undirected, weighted communication graph with two designated
// terminals. Edge weights are communication times in nanoseconds: the cost
// paid if the edge's endpoints are placed on different machines.
type Graph struct {
	names []string
	index map[string]int

	// The edge store: ekey[i] is the pair whose accumulated weight is ew[i].
	// Settled, it is strictly increasing in ekey; AddEdge appends in call
	// order behind that and sets dirty.
	ekey []pairKey
	ew   []time.Duration
	// coloc holds pair-wise co-location constraints, sorted and distinct
	// when settled. Keeping constraints out of the edge store preserves the
	// accumulated communication weight of a constrained pair: the engine
	// reports true edge weights while the cut still treats the pair as
	// unsplittable.
	coloc []pairKey
	dirty bool

	pin  []int8 // per node: unpinned, or the Side it is pinned to
	pins int    // number of pinned nodes
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[string]int)}
}

// Node interns a node by name and returns its index.
func (g *Graph) Node(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	i := len(g.names)
	g.names = append(g.names, name)
	g.pin = append(g.pin, unpinned)
	g.index[name] = i
	return i
}

// Name returns the name of node i.
func (g *Graph) Name(i int) string { return g.names[i] }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.names) }

// NodeNames returns a copy of the node names in insertion order.
func (g *Graph) NodeNames() []string {
	return append([]string(nil), g.names...)
}

// settle puts the store in order after AddEdge or CoLocate calls: edges
// sorted by key with the weights of a repeated pair summed (saturating at
// math.MaxInt64, which TotalWeight reports), welds sorted and distinct.
// Every reader calls it first; on a settled graph it reads one flag and
// writes nothing.
func (g *Graph) settle() {
	if !g.dirty {
		return
	}
	// Two stable counting-sort passes over call positions, by hi and then
	// by lo, leave them in (lo, hi) order with a repeated pair's appends
	// still in call order — in O(E + N), where a comparison sort of 792k
	// appends took seven times as long.
	order := make([]int32, len(g.ekey))
	for i := range order {
		order[i] = int32(i)
	}
	next := make([]int32, len(order))
	start := make([]int32, len(g.names)+1)
	for _, shift := range []uint{0, 32} {
		node := func(i int32) uint32 { return uint32(g.ekey[i] >> shift) }
		clear(start)
		for _, i := range order {
			start[node(i)+1]++
		}
		for v := 1; v < len(start); v++ {
			start[v] += start[v-1]
		}
		for _, i := range order {
			next[start[node(i)]] = i
			start[node(i)]++
		}
		order, next = next, order
	}
	ekey := make([]pairKey, 0, len(order))
	ew := make([]time.Duration, 0, len(order))
	for _, i := range order {
		if n := len(ekey); n > 0 && ekey[n-1] == g.ekey[i] {
			ew[n-1] = min(ew[n-1], math.MaxInt64-g.ew[i]) + g.ew[i]
			continue
		}
		ekey = append(ekey, g.ekey[i])
		ew = append(ew, g.ew[i])
	}
	g.ekey, g.ew = ekey, ew
	slices.Sort(g.coloc)
	g.coloc = slices.Compact(g.coloc)
	g.dirty = false
}

// AddEdge accumulates weight w onto the undirected edge {a, b}. Self-edges
// and non-positive weights are ignored: communication within one node never
// crosses a machine boundary. The pair-wise constraint is CoLocate.
func (g *Graph) AddEdge(a, b string, w time.Duration) {
	g.AddEdgeAt(g.Node(a), g.Node(b), w)
}

// AddEdgeAt is AddEdge between nodes i and j by index.
func (g *Graph) AddEdgeAt(i, j int, w time.Duration) {
	if i == j || w <= 0 {
		return
	}
	g.ekey = append(g.ekey, makePair(i, j))
	g.ew = append(g.ew, w)
	g.dirty = true
}

// SetEdgeCost overwrites the weight of the undirected edge {a, b},
// interning missing nodes. Unlike AddEdge it replaces rather than
// accumulates — the entry point for re-pricing an existing topology
// (adaptive repartitioning, warm-start sweeps), where it leaves the
// store's order alone. A non-positive weight deletes the edge, a topology
// change: an arena cutting the graph will restage. Self-edges are ignored.
func (g *Graph) SetEdgeCost(a, b string, w time.Duration) {
	if a == b {
		return
	}
	g.settle()
	k := makePair(g.Node(a), g.Node(b))
	i, found := slices.BinarySearch(g.ekey, k)
	switch {
	case found && w > 0:
		g.ew[i] = w
	case found:
		g.ekey = slices.Delete(g.ekey, i, i+1)
		g.ew = slices.Delete(g.ew, i, i+1)
	case w > 0:
		g.ekey = slices.Insert(g.ekey, i, k)
		g.ew = slices.Insert(g.ew, i, w)
	}
}

// EdgeNames returns the edges' endpoint names in store order, (lo, hi) by
// node index — a stable iteration order for callers that perturb and
// restore weights across repeated cuts.
func (g *Graph) EdgeNames() [][2]string {
	g.settle()
	out := make([][2]string, len(g.ekey))
	for i, k := range g.ekey {
		lo, hi := k.nodes()
		out[i] = [2]string{g.names[lo], g.names[hi]}
	}
	return out
}

// pairOf returns the key of the named pair, if both nodes exist.
func (g *Graph) pairOf(a, b string) (pairKey, bool) {
	i, ok := g.index[a]
	if !ok {
		return 0, false
	}
	j, ok := g.index[b]
	return makePair(i, j), ok
}

// EdgeCost returns the accumulated weight of edge {a, b}.
func (g *Graph) EdgeCost(a, b string) time.Duration {
	g.settle()
	if k, ok := g.pairOf(a, b); ok {
		if i, found := slices.BinarySearch(g.ekey, k); found {
			return g.ew[i]
		}
	}
	return 0
}

// Edges returns the number of distinct edges.
func (g *Graph) Edges() int {
	g.settle()
	return len(g.ekey)
}

// MaxTotalWeight bounds a graph's total edge weight (about 73 years), so
// that a weld arc's residual of twice the infinity proxy fits an int64.
const MaxTotalWeight = time.Duration(math.MaxInt64 / 4)

// ErrOverflow reports weights the cut cannot carry in int64 nanoseconds.
var ErrOverflow = errors.New("graph: edge weights overflow the cut's int64 capacities")

// TotalWeight returns the sum of all edge weights, or ErrOverflow once the
// sum passes MaxTotalWeight.
func (g *Graph) TotalWeight() (time.Duration, error) {
	g.settle()
	var t time.Duration
	for _, w := range g.ew {
		if w > MaxTotalWeight-t {
			return 0, fmt.Errorf("%w: total edge weight passes %v", ErrOverflow, MaxTotalWeight)
		}
		t += w
	}
	return t, nil
}

// infinityProxy returns the finite capacity standing in for an infinite
// (weld or pin) arc, 2·TotalWeight+1: more than any cut of edges alone
// costs, so no minimum cut crosses one. Every residual and excess is at
// most the network's total capacity — each edge and weld both ways, each
// pin once — so that must fit an int64 too, or it is ErrOverflow.
func (g *Graph) infinityProxy() (time.Duration, error) {
	t, err := g.TotalWeight()
	proxies := 2*len(g.coloc) + g.pins
	inf := 2*t + 1
	if err == nil && inf > (math.MaxInt64-2*t)/time.Duration(max(proxies, 1)) {
		err = fmt.Errorf("%w: %d pin and weld arcs of 2·%v+1", ErrOverflow, proxies, t)
	}
	return inf, err
}

// Pin constrains a node to a side. Location constraints — GUI components
// to the client, storage components to the server, programmer-specified
// absolute constraints — become infinite-capacity edges to the terminals.
func (g *Graph) Pin(name string, s Side) {
	v := g.Node(name)
	if g.pin[v] == unpinned {
		g.pins++
	}
	g.pin[v] = int8(s)
}

// Pins returns the number of pinned nodes.
func (g *Graph) Pins() int { return g.pins }

// Pinned returns the side a node is pinned to, if any.
func (g *Graph) Pinned(name string) (Side, bool) {
	i, ok := g.index[name]
	if !ok || g.pin[i] == unpinned {
		return 0, false
	}
	return Side(g.pin[i]), true
}

// CoLocate constrains two nodes to the same machine (the paper's pair-wise
// constraint, used for endpoints of non-remotable interfaces). The
// constraint is tracked separately from the edge store, so any
// communication weight accumulated on the pair — before or after — is
// preserved.
func (g *Graph) CoLocate(a, b string) {
	g.CoLocateAt(g.Node(a), g.Node(b))
}

// CoLocateAt is CoLocate on nodes i and j by index.
func (g *Graph) CoLocateAt(i, j int) {
	if i == j {
		return
	}
	g.coloc = append(g.coloc, makePair(i, j))
	g.dirty = true
}

// CoLocated reports whether a direct pair-wise constraint joins a and b.
func (g *Graph) CoLocated(a, b string) bool {
	g.settle()
	k, ok := g.pairOf(a, b)
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(g.coloc, k)
	return found
}

// CoLocations returns the number of pair-wise co-location constraints.
func (g *Graph) CoLocations() int {
	g.settle()
	return len(g.coloc)
}

// clone returns a settled copy of the graph sharing nothing with it.
func (g *Graph) clone() *Graph {
	g.settle()
	c := &Graph{
		names: slices.Clone(g.names),
		index: make(map[string]int, len(g.names)),
		ekey:  slices.Clone(g.ekey),
		ew:    slices.Clone(g.ew),
		coloc: slices.Clone(g.coloc),
		pin:   slices.Clone(g.pin),
		pins:  g.pins,
	}
	for i, n := range c.names {
		c.index[n] = i
	}
	return c
}

// WithoutCoLocations returns a copy of the graph with identical nodes,
// edges, and pins but no co-location constraints. Because constraints
// only ever merge nodes (infinite-capacity welds), the relaxed graph's
// minimum cut is a lower bound on the constrained one — the monotonicity
// oracle the full-pipeline property harness checks every cut against.
func (g *Graph) WithoutCoLocations() *Graph {
	c := g.clone()
	c.coloc = nil
	return c
}

// Validate reports structural problems: contradictory pins connected by a
// chain of co-location constraints make the instance unsatisfiable. The
// check is transitive — A welded to B welded to C with A and C pinned
// apart is rejected even though no single constraint spans the pins.
func (g *Graph) Validate() error {
	g.settle()
	uf := newUnionFind(g.Len())
	for _, k := range g.coloc {
		uf.union(k.nodes())
	}
	firstPinned := make(map[int]int) // weld-component root -> pinned node
	for v, side := range g.pin {
		if side == unpinned {
			continue
		}
		root := uf.find(v)
		w, ok := firstPinned[root]
		if !ok {
			firstPinned[root] = v
			continue
		}
		if g.pin[w] != side {
			return fmt.Errorf("graph: nodes %q and %q are (transitively) co-located but pinned to different machines",
				g.names[w], g.names[v])
		}
	}
	return nil
}

// unionFind is a standard disjoint-set forest with path compression.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// EvaluateAssignmentDetail prices an arbitrary assignment — the
// communication time of any distribution, not necessarily a minimum cut —
// and counts the co-location constraints it splits, so an infeasible
// default distribution still gets an honest communication time beside an
// explicit violation count. Nodes missing from it count as SourceSide.
func (g *Graph) EvaluateAssignmentDetail(assign map[string]Side) (cost time.Duration, violations int) {
	g.settle()
	return g.crossing(func(lo, hi int) bool { return assign[g.names[lo]] != assign[g.names[hi]] })
}

// crossing prices a partition of a settled graph's nodes: the weight of
// the edges whose endpoints apart separates, and the number of co-location
// constraints it splits.
func (g *Graph) crossing(apart func(lo, hi int) bool) (cost time.Duration, welds int) {
	for i, k := range g.ekey {
		if apart(k.nodes()) {
			cost += g.ew[i]
		}
	}
	for _, k := range g.coloc {
		if apart(k.nodes()) {
			welds++
		}
	}
	return cost, welds
}

// Cut is the result of a two-way partition.
type Cut struct {
	// Assignment is every node's side, indexed like the graph's nodes:
	// Assignment[i] is the side of the node g.Name(i).
	Assignment []Side
	// Cost is the weight of the edges crossing the cut, the communication
	// time of the chosen distribution, and the max flow of the solve that
	// found the cut (newCut checks it).
	Cost    time.Duration
	seconds // Weight and FlowValue: Cost in seconds, for bench/ only

	names []string // the cut graph's node names, shared with it, not copied
}

// ErrFlowMismatch reports a cut whose crossing cost is not the max flow of
// the solve it was read from, which max-flow/min-cut makes equal.
var ErrFlowMismatch = errors.New("graph: cut cost differs from its max flow")

// newCut is both extractors' tail: an exact cut crosses no pin or weld
// (proxy arcs) and costs its solve's flow, so a side vector that breaks a
// pin (naming the node), splits a weld or costs other than flow comes from
// a corrupted network or residual state and is an error, not a Cut.
func (g *Graph) newCut(sides []Side, flow time.Duration) (*Cut, error) {
	for v, p := range g.pin {
		if p != unpinned && Side(p) != sides[v] {
			return nil, fmt.Errorf("graph: cut puts %q, pinned to side %d, on side %d", g.names[v], p, sides[v])
		}
	}
	cost, welds := g.crossing(func(lo, hi int) bool { return sides[lo] != sides[hi] })
	if welds > 0 {
		return nil, fmt.Errorf("graph: minimum cut crosses a co-location constraint")
	}
	if cost != flow {
		return nil, fmt.Errorf("%w: crossing %v, flow %v", ErrFlowMismatch, cost, flow)
	}
	return &Cut{Assignment: sides, Cost: cost, seconds: seconds{cost.Seconds(), cost.Seconds()}, names: g.names}, nil
}
