package graph

// The CSR (compressed sparse row) flow network is the data structure of
// the cut engine. An adjacency-list network allocates one slice per node
// and chases pointers across them; at the multi-thousand-node ICC graphs
// the paper's applications produce (§2, §5) that dominates the cut's wall
// time. The CSR network is four flat arrays — arc targets, reverse-arc
// indices, residual capacities, and per-node offsets — so discharge loops
// scan contiguous memory and the whole residual state fits a few
// cache-resident allocations. A CutArena (arena.go) lays the arrays out
// straight from its copy of the edge store (CutArena.layout) and keeps
// them across repeated cuts on one topology.

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

// grow returns s resized to n, reusing its backing array, contents and
// all, when that is large enough (a warm start relies on the kept
// excesses), and a zeroed array otherwise. Every arena and solver array
// is sized by it.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
