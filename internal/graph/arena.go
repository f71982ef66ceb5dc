package graph

import (
	"context"
	"slices"
	"time"
)

// CutArena makes repeated minimum cuts cheap. Adaptive repartitioning
// re-cuts the *same topology* once per network model and per profile
// window: the node set, edge set, welds, and pins are fixed while only
// the edge pricing moves. A one-shot MinCut pays the full build every
// time — lay out the CSR arrays, allocate the solver scratch, run
// push-relabel from zero flow. The arena keeps all of that alive between
// cuts:
//
//   - the CSR arrays (head/to/rev/cap), so an unchanged topology only
//     rewrites cap instead of re-laying out and re-allocating. Nothing
//     else is kept per arc: every push keeps a pair's two residuals
//     summing to its two capacities, (w, w) for an edge, (inf, inf) for a
//     weld and (inf, 0) for a pin, so a rewrite reads each arc's capacity,
//     and with it the flow it carries, off its residual pair;
//   - the highest-label solver scratch (buckets, label lists, and the
//     reverse-BFS queue and distances the cut is read from);
//   - the previous solve's residual capacities and excess vector, which
//     seed a warm start: when only weights moved, the old preflow is
//     clamped onto the new capacities (saturating or relaxing exactly
//     the arcs whose capacity changed, with a budget-capped cascade
//     repairing any node the clamp drove into deficit) and push-relabel
//     resumes from there instead of from zero flow;
//   - that solve's residual distances and flow value: when neither the
//     topology nor any capacity changed since, the cut is read off them
//     again and no solver runs.
//
// Soundness of the warm start: the clamp produces a feasible preflow on
// the new capacities (all residuals non-negative, conservation kept by
// the excess bookkeeping, every non-terminal excess >= 0 after repair),
// and the solver rebuilds heights from an exact reverse BFS — a valid
// labeling for any feasible preflow. Phase-1 push-relabel started from
// any valid preflow/labeling pair computes a maximum preflow, and the
// source side it induces (the nodes that cannot reach t in the residual
// network) is the same for every maximum preflow — the sink side of the
// t-minimal minimum cut — so warm and cold runs land on the identical
// partition, not merely an equally-cheap one. When the deficit-repair
// cascade exceeds its work budget (the "delta too large" case: so much
// flow must be torn up that resuming buys nothing), the arena falls
// back to a cold start on the already-rewritten capacities.
//
// An arena is NOT safe for concurrent use; give each goroutine its own.
// The zero value is ready to use.
type CutArena struct {
	staged bool          // CSR arrays reflect the staged topology below
	solved bool          // net.cap/st.excess/st.dist hold a completed solve
	flow   time.Duration // that solve's flow value, excess[t]
	inf    time.Duration

	// Staged topology, copied from the graph's store at restage and
	// compared with it, array against array, to decide whether a new cut
	// may reuse the layout. The match is by content, not by graph identity:
	// callers that rebuild an equal graph for every cut still rewrite
	// instead of restaging. These copies are also what the layout and
	// every rewrite walk (eachPair); no other list of the pairs exists.
	edgeKeys  []pairKey
	colocKeys []pairKey
	pin       []int8

	net csrNet
	deg []int32 // layout scratch: per-node degree, then write cursor

	st      hiprState
	deficit []int32 // warm-start repair stack

	stats CutArenaStats
}

// CutArenaStats counts how the arena served its cuts.
type CutArenaStats struct {
	// Cuts is the total number of cuts run through the arena.
	Cuts int
	// Warm cuts resumed from the previous preflow (topology unchanged,
	// capacity delta within budget).
	Warm int
	// Cold cuts ran from zero flow on reused arrays (first cut, a solver
	// reset, or a warm-start fallback).
	Cold int
	// Reused cuts ran no solver: the topology matched and no capacity
	// changed since the last finished solve, so the cut was read off that
	// solve's residual distances.
	Reused int
	// Restaged counts cuts that had to rebuild the CSR layout because
	// the topology changed.
	Restaged int
	// Fallbacks counts warm starts abandoned because the deficit-repair
	// cascade blew its work budget.
	Fallbacks int
}

// NewCutArena returns an empty arena.
func NewCutArena() *CutArena { return &CutArena{} }

// Stats reports the arena's cut counters.
func (a *CutArena) Stats() CutArenaStats { return a.stats }

// MinCut partitions the graph between client (source side) and server
// (sink side) minimizing the weight of crossing edges, using
// highest-label push-relabel over the CSR flow network (csr.go, hipr.go).
// It is exact for two-way client/server cuts, the paper's claim;
// partitioning across three or more machines is NP-hard. Unpinned nodes
// in components touching neither terminal carry no crossing cost; they
// land on the source side.
func (g *Graph) MinCut() (*Cut, error) {
	return g.MinCutCtx(context.Background())
}

// MinCutCtx is MinCut under a context: the push-relabel core polls
// ctx.Done() between discharge batches, so a cancelled or expired
// context aborts a long cut mid-run with the context's error instead of
// burning the worker to completion. One-shot cuts are a single cold run
// through a throwaway CutArena; callers that cut repeatedly should hold
// an arena of their own (MinCutArena) to reuse its arrays and warm-start
// from the previous flow.
func (g *Graph) MinCutCtx(ctx context.Context) (*Cut, error) {
	return g.MinCutArena(ctx, NewCutArena())
}

// MinCutArena is MinCutCtx backed by a reusable arena: repeated cuts on
// an unchanged topology skip staging and allocation, and weight-only
// changes warm-start push-relabel from the previous flow. The cut
// returned is identical to MinCutCtx's on the same graph.
func (g *Graph) MinCutArena(ctx context.Context, a *CutArena) (*Cut, error) {
	g.settle()
	return g.minCutArena(ctx, a)
}

// minCutArena runs one arena-backed cut of a settled graph. It is the
// only path from a Graph to a production Cut. Pins are validated against
// the welds once per staging: a matched arena holds a copy of the very
// pin array and weld keys that passed at its last restage, and the pin
// array's length fixes the node count. A matched network that no
// capacity rewrite changed is not solved again; its cut is read off the
// last solve's residual distances.
func (g *Graph) minCutArena(ctx context.Context, a *CutArena) (*Cut, error) {
	inf, err := g.infinityProxy()
	if err != nil {
		return nil, err
	}
	warm, changed := false, true
	if a.matches(g) {
		warm, changed = a.rewrite(g, inf)
	} else {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		a.restage(g, inf)
		a.stats.Restaged++
	}
	a.stats.Cuts++
	if warm && !changed {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a.stats.Reused++
		return a.extractCut(g)
	}
	flow, err := a.net.maxFlowHL(ctx, &a.st, warm)
	if err != nil {
		// An aborted solve leaves the residual state mid-run; the next
		// cut must not warm-start from it.
		a.solved = false
		return nil, err
	}
	a.solved, a.flow = true, flow
	if warm {
		a.stats.Warm++
	} else {
		a.stats.Cold++
	}
	a.net.distToSink(&a.st)
	return a.extractCut(g)
}

// extractCut reads the last solve's cut off its residual distances: the
// nodes that cannot reach t (dist -1) are the source side. The Cut and its
// side vector are all it allocates.
func (a *CutArena) extractCut(g *Graph) (*Cut, error) {
	sides := make([]Side, g.Len())
	for v := range sides {
		if a.st.dist[v] != -1 {
			sides[v] = SinkSide
		}
	}
	return g.newCut(sides, a.flow)
}

// matches reports whether the staged topology is exactly the graph's
// current one (same nodes, edge keys, weld keys, and pin assignment), so
// the CSR layout can be reused with only capacities rewritten. Both sides
// are flat and sorted, so it is three array compares.
func (a *CutArena) matches(g *Graph) bool {
	return a.staged && slices.Equal(a.pin, g.pin) &&
		slices.Equal(a.edgeKeys, g.ekey) && slices.Equal(a.colocKeys, g.coloc)
}

// restage copies the graph's store into the arena and lays the CSR
// network out from the copies, reusing every backing array with enough
// capacity. Store order makes the network layout, and with it the
// particular minimum cut the solver lands on when several tie, identical
// run to run. The solver then runs cold: a changed topology invalidates
// the previous flow.
//
// Coign's free-floating rule needs nothing here: a component touching no
// pinned node has no arc into t, so the cut's reverse BFS from t never
// reaches it and it lands on the source side (the client). inf is the
// graph's infinity proxy, the capacity of every weld and pin arc.
func (a *CutArena) restage(g *Graph, inf time.Duration) {
	n := g.Len()
	a.net.n, a.net.s, a.net.t, a.inf = n+2, n, n+1, inf
	a.edgeKeys = append(a.edgeKeys[:0], g.ekey...)
	a.colocKeys = append(a.colocKeys[:0], g.coloc...)
	a.pin = append(a.pin[:0], g.pin...)
	a.layout(g.ew)
	a.staged, a.solved = true, false
}

// eachPair visits the staged capacity pairs in layout order: edges in
// store order (capacity ew[i] both ways), welds in store order (the proxy
// a.inf both ways), then pins in node order (one directed proxy arc from s
// to each client-pinned node, and from each server-pinned node to t). No
// pair is a self-loop: the store holds only lo < hi keys (AddEdge,
// SetEdgeCost and CoLocate drop a == b at the door) and a pin joins a node
// to a terminal. The layout's paired fill relies on that; both halves of a
// u->u pair would land on one slot.
func (a *CutArena) eachPair(ew []time.Duration, visit func(u, v int32, capUV, capVU time.Duration)) {
	for i, k := range a.edgeKeys {
		lo, hi := k.nodes()
		visit(int32(lo), int32(hi), ew[i], ew[i])
	}
	for _, k := range a.colocKeys {
		lo, hi := k.nodes()
		visit(int32(lo), int32(hi), a.inf, a.inf)
	}
	s, t := int32(a.net.s), int32(a.net.t)
	for v, side := range a.pin {
		switch Side(side) {
		case SourceSide:
			visit(s, int32(v), a.inf, 0)
		case SinkSide:
			visit(int32(v), t, a.inf, 0)
		}
	}
}

// layout performs the counting-sort CSR layout of the staged pairs into
// the arena-owned arrays in two passes: degrees, then fill.
func (a *CutArena) layout(ew []time.Duration) {
	n, m := a.net.n, 0
	a.deg = grow(a.deg, n)
	clear(a.deg)
	a.eachPair(ew, func(u, v int32, _, _ time.Duration) {
		a.deg[u]++
		a.deg[v]++
		m++
	})
	a.net.head = grow(a.net.head, n+1)
	a.net.to = grow(a.net.to, 2*m)
	a.net.rev = grow(a.net.rev, 2*m)
	a.net.cap = grow(a.net.cap, 2*m)
	a.net.head[0] = 0
	for i := 0; i < n; i++ {
		a.net.head[i+1] = a.net.head[i] + a.deg[i]
	}
	a.fill(ew)
}

// fill writes every staged pair's two arcs at zero flow, each residual its
// arc's capacity, with a per-node write cursor that starts at head. The
// pairs, visited in eachPair order, land on the same two slots every time,
// so on a laid-out network fill is the reset of every residual.
func (a *CutArena) fill(ew []time.Duration) {
	pos := a.deg // the degrees are spent: reuse them as the cursor
	copy(pos, a.net.head[:a.net.n])
	a.eachPair(ew, func(u, v int32, capUV, capVU time.Duration) {
		iu, iv := pos[u], pos[v]
		pos[u]++
		pos[v]++
		a.net.to[iu], a.net.cap[iu], a.net.rev[iu] = v, capUV, iv
		a.net.to[iv], a.net.cap[iv], a.net.rev[iv] = u, capVU, iu
	})
}

// warmRepairBudgetFactor bounds the deficit-repair cascade: when tearing
// up the old flow costs more than this many passes over the network, a
// cold start is cheaper and the warm start is abandoned.
const warmRepairBudgetFactor = 4

// rewrite maps the graph's current capacities onto the staged layout
// (topology already verified by matches) and reports whether the solver
// may warm-start and whether any pair's capacity changed. Without a
// finished solve it resets every residual to its capacity, so nothing an
// aborted run left behind survives into the cold run that follows. With
// one it clamps the old flow onto the new capacities pair by pair —
// untouched pairs keep their residuals — and repairs any deficits the
// clamp created; after a repair blowout it resets the residuals the same
// way. inf is the graph's current infinity proxy, as for restage.
//
// Every push keeps a pair's two residuals summing to its two capacities,
// so a pair's old capacities come off its residuals: the sum split evenly
// for an edge or weld, all of it one way for a pin, whose reverse
// capacity is 0 before and after. A pair's u-half is found from where
// fill put it in its row and its v-half is rev of that, so an edge's walk
// moves no cursor at its upper end.
func (a *CutArena) rewrite(g *Graph, inf time.Duration) (warm, changed bool) {
	a.inf = inf
	if !a.solved {
		a.fill(g.ew)
		return false, true
	}
	a.deficit = a.deficit[:0]
	res, rev, excess := a.net.cap, a.net.rev, a.st.excess
	s, t := int32(a.net.s), int32(a.net.t)
	clamp := func(au, u, v int32, newUV, newVU time.Duration) {
		av := rev[au]
		sum := res[au] + res[av]
		if sum == newUV+newVU {
			return // untouched: keep residuals (and any flow)
		}
		changed = true
		oldVU := sum / 2
		if newVU == 0 {
			oldVU = 0 // a pin
		}
		// Clamp the old flow into the new capacity band. f is the signed
		// flow u->v of the previous solve; any part of it the new
		// capacities cannot carry is returned to the endpoints' excesses.
		f := sum - oldVU - res[au]
		nf := max(min(f, newUV), -newVU)
		if nf != f {
			delta := f - nf
			excess[u] += delta
			excess[v] -= delta
			if v != s && v != t && excess[v] < 0 {
				a.deficit = append(a.deficit, v)
			}
			if u != s && u != t && excess[u] < 0 {
				a.deficit = append(a.deficit, u)
			}
		}
		res[au] = newUV - nf
		res[av] = newVU + nf
	}
	// fill leaves each node's row as its edge arcs, its weld arcs, then its
	// pin arc. pos[x] starts on x's first weld arc, counted back from the
	// row's end.
	pos := a.deg
	for x, side := range a.pin {
		pos[x] = a.net.head[x+1]
		if side != unpinned {
			pos[x]--
		}
	}
	for _, k := range a.colocKeys {
		lo, hi := k.nodes()
		pos[lo]--
		pos[hi]--
	}
	// The store is sorted by (lo, hi), so every edge into x from below was
	// filled before x's own: the u-halves of a run of edges with one lower
	// end are the run's last slots before that end's weld arcs, in store
	// order.
	keys := a.edgeKeys
	for i := 0; i < len(keys); {
		lo, _ := keys[i].nodes()
		j := i + 1
		for j < len(keys) && keys[j]>>32 == keys[i]>>32 {
			j++
		}
		au := pos[lo] - int32(j-i)
		for ; i < j; i++ {
			_, hi := keys[i].nodes()
			clamp(au, int32(lo), int32(hi), g.ew[i], g.ew[i])
			au++
		}
	}
	// Welds replay fill's cursor from there, which leaves pos[x] on the
	// pin arc of a pinned x.
	for _, k := range a.colocKeys {
		lo, hi := k.nodes()
		clamp(pos[lo], int32(lo), int32(hi), inf, inf)
		pos[lo]++
		pos[hi]++
	}
	for v, side := range a.pin {
		switch Side(side) {
		case SourceSide:
			clamp(rev[pos[v]], s, int32(v), inf, 0)
		case SinkSide:
			clamp(pos[v], int32(v), t, inf, 0)
		}
	}
	if !a.repairDeficits() {
		// Blown budget: tear-up too large, resume is not worth it. Reset
		// the residuals to the new capacities and run cold.
		a.stats.Fallbacks++
		a.fill(g.ew)
		return false, changed
	}
	return true, changed
}

// repairDeficits restores the preflow invariant after capacity clamps: a
// node driven below zero excess pulls back its own outgoing flow, which
// may push the deficit one hop downstream until it is absorbed by
// positive excess or reaches a terminal. Every non-terminal deficit can
// be repaired locally — a deficit means outflow exceeds inflow, so there
// is always enough outgoing flow to cancel — and each cancellation
// monotonically reduces total flow, so the cascade terminates; the work
// budget bounds the pathological flow-cycle case and triggers the cold
// fallback instead of grinding.
func (a *CutArena) repairDeficits() bool {
	if len(a.deficit) == 0 {
		return true
	}
	f := &a.net
	budget := warmRepairBudgetFactor * (f.n + len(f.to))
	work := 0
	for len(a.deficit) > 0 {
		v := a.deficit[len(a.deficit)-1]
		a.deficit = a.deficit[:len(a.deficit)-1]
		for a.st.excess[v] < 0 {
			progressed := false
			for arc := f.head[v]; arc < f.head[v+1] && a.st.excess[v] < 0; arc++ {
				work++
				// The arc's capacity, off its residual pair (see rewrite):
				// v is no terminal, so an arc into t is a pin's and carries
				// the whole sum, an arc into s is a pin's reverse and
				// carries none, and any other carries half.
				w := f.to[arc]
				c := f.cap[arc] + f.cap[f.rev[arc]]
				switch int(w) {
				case f.t:
				case f.s:
					c = 0
				default:
					c /= 2
				}
				fl := c - f.cap[arc] // flow v -> w
				if fl <= 0 {
					continue
				}
				d := min(fl, -a.st.excess[v])
				f.cap[arc] += d
				f.cap[f.rev[arc]] -= d
				a.st.excess[v] += d
				a.st.excess[w] -= d
				progressed = true
				if int(w) != f.s && int(w) != f.t && a.st.excess[w] < 0 {
					a.deficit = append(a.deficit, w)
				}
			}
			if work > budget {
				return false
			}
			if !progressed {
				// No outgoing flow left to pull back: the preflow is
				// inconsistent. It cannot happen; never spin on it.
				return false
			}
		}
	}
	return true
}
