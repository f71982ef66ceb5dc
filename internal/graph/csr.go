package graph

// The CSR (compressed sparse row) flow network is the data structure of
// the cut engine. An adjacency-list network allocates one slice per node
// and chases pointers across them; at the multi-thousand-node ICC graphs
// the paper's applications produce (§2, §5) that dominates the cut's wall
// time. The CSR network is four flat arrays — arc targets, reverse-arc
// indices, residual capacities, and per-node offsets — so discharge loops
// scan contiguous memory and the whole residual state fits a few
// cache-resident allocations. A CutArena (arena.go) lays the arrays out
// (CutArena.layout) and keeps them across repeated cuts on one topology.

// csrNet is a residual flow network in compressed sparse row form.
// Arcs of node u occupy the half-open range head[u]..head[u+1] in to, rev,
// and cap. rev[a] is the absolute index of arc a's reverse arc, with
// rev[rev[a]] == a.
type csrNet struct {
	n    int // node count including both terminals
	s, t int
	head []int32
	to   []int32
	rev  []int32
	cap  []float64
}

// csrArc is one undirected or directed capacity pair staged before CSR
// layout: capUV flows u->v, capVU flows v->u (zero for a directed arc's
// residual).
type csrArc struct {
	u, v         int32
	capUV, capVU float64
}

// sourceSideInto returns, for every node, whether it lands on the source side
// of the minimum cut after a phase-1 (max-preflow) run: the nodes that
// cannot reach t in the residual network. This is exact after phase 1
// alone — every arc crossing out of the non-reaching set is saturated and
// no flow crosses back, so the cut's capacity equals the preflow value at
// t — which is why the highest-label core never needs the second
// (excess-return) phase. The partition is also the same for every maximum
// preflow on the network (the sink side of the t-minimal minimum cut), so
// warm-started and cold runs agree on it even when several cuts tie.
// The BFS runs over caller-owned scratch, so an arena extracts repeated
// cuts without re-allocating it.
func (f *csrNet) sourceSideInto(reachesT []bool, queue []int32) []bool {
	reachesT = reachesT[:f.n]
	for i := range reachesT {
		reachesT[i] = false
	}
	queue = append(queue[:0], int32(f.t))
	reachesT[f.t] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for a := f.head[u]; a < f.head[u+1]; a++ {
			// to[a] reaches u iff residual(to[a] -> u) > 0.
			v := f.to[a]
			if !reachesT[v] && f.cap[f.rev[a]] > capEps {
				reachesT[v] = true
				queue = append(queue, v)
			}
		}
	}
	onSource := make([]bool, f.n)
	for i := range onSource {
		onSource[i] = !reachesT[i]
	}
	return onSource
}
