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
//   - the CSR arrays (head/to/rev/cap) and the per-pair arc index, so an
//     unchanged topology only rewrites cap instead of re-laying out and
//     re-allocating;
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
	solved bool          // net.cap/st.excess/st.dist hold a completed solve over capStart
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

	arcIdx []int32 // arc index of each pair's u-half, pairs in eachPair order

	net      csrNet
	capStart []time.Duration // capacities the last solve started from, per arc
	deg      []int32         // layout scratch

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
// It is exact for two-way client/server cuts; partitioning across three
// or more machines is NP-hard and handled by the heuristic in
// multiway.go. Unpinned nodes in components touching neither terminal
// carry no crossing cost; they land on the source side.
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
	return g.minCutArena(ctx, a, g.pin)
}

// minCutArena runs one arena-backed cut of a settled graph under an
// explicit per-node pin array (the multiway heuristic substitutes
// per-terminal pins). It is the only path from a Graph to a production
// Cut. Pins are validated against the welds once per staging: a matched
// arena holds the very pin array and weld keys that passed at its last
// restage, and the pin array's length fixes the node count. A matched
// network that no capacity rewrite changed is not solved again; its cut
// is read off the last solve's residual distances.
func (g *Graph) minCutArena(ctx context.Context, a *CutArena, pin []int8) (*Cut, error) {
	inf, err := g.infinityProxy(pin)
	if err != nil {
		return nil, err
	}
	warm, changed := false, true
	if a.matches(g, pin) {
		warm, changed = a.rewrite(g, inf)
	} else {
		if err := g.validatePinned(pin); err != nil {
			return nil, err
		}
		a.restage(g, pin, inf)
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
	return g.newCut(a.pin, sides, a.flow)
}

// matches reports whether the staged topology is exactly the graph's
// current one (same nodes, edge keys, weld keys, and pin assignment), so
// the CSR layout can be reused with only capacities rewritten. Both sides
// are flat and sorted, so it is three array compares.
func (a *CutArena) matches(g *Graph, pin []int8) bool {
	return a.staged && slices.Equal(a.pin, pin) &&
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
func (a *CutArena) restage(g *Graph, pin []int8, inf time.Duration) {
	n := g.Len()
	a.net.n, a.net.s, a.net.t, a.inf = n+2, n, n+1, inf
	a.edgeKeys = append(a.edgeKeys[:0], g.ekey...)
	a.colocKeys = append(a.colocKeys[:0], g.coloc...)
	a.pin = append(a.pin[:0], pin...)
	a.layout(g.ew)
	a.staged, a.solved = true, false
}

// eachPair visits the staged capacity pairs in layout order with their
// position i: edges in store order (capacity ew[i] both ways), welds in
// store order (the proxy a.inf both ways), then pins in node order (one
// directed proxy arc from s to each client-pinned node, and from each
// server-pinned node to t). No pair is a self-loop: the store holds only
// lo < hi keys (AddEdge, SetEdgeCost and CoLocate drop a == b at the
// door) and a pin joins a node to a terminal. The layout's paired fill
// relies on that; both halves of a u->u pair would land on one slot.
func (a *CutArena) eachPair(ew []time.Duration, visit func(i int, u, v int32, capUV, capVU time.Duration)) {
	for i, k := range a.edgeKeys {
		lo, hi := k.nodes()
		visit(i, int32(lo), int32(hi), ew[i], ew[i])
	}
	i := len(a.edgeKeys)
	for _, k := range a.colocKeys {
		lo, hi := k.nodes()
		visit(i, int32(lo), int32(hi), a.inf, a.inf)
		i++
	}
	s, t := int32(a.net.s), int32(a.net.t)
	for v, side := range a.pin {
		switch Side(side) {
		case SourceSide:
			visit(i, s, int32(v), a.inf, 0)
		case SinkSide:
			visit(i, int32(v), t, a.inf, 0)
		default:
			continue
		}
		i++
	}
}

// layout performs the counting-sort CSR layout of the staged pairs into
// the arena-owned arrays in two passes (degree, fill), recording each
// pair's u-half arc index so capacity rewrites can find their slots
// without laying out again.
func (a *CutArena) layout(ew []time.Duration) {
	n, m := a.net.n, 0
	a.deg = grow(a.deg, n)
	clear(a.deg)
	a.eachPair(ew, func(_ int, u, v int32, _, _ time.Duration) {
		a.deg[u]++
		a.deg[v]++
		m++
	})
	a.net.head = grow(a.net.head, n+1)
	a.net.to = grow(a.net.to, 2*m)
	a.net.rev = grow(a.net.rev, 2*m)
	a.net.cap = grow(a.net.cap, 2*m)
	a.capStart = grow(a.capStart, 2*m)
	a.arcIdx = grow(a.arcIdx, m)
	a.net.head[0] = 0
	for i := 0; i < n; i++ {
		a.net.head[i+1] = a.net.head[i] + a.deg[i]
	}
	pos := a.deg // reuse as the write cursor
	copy(pos, a.net.head[:n])
	a.eachPair(ew, func(i int, u, v int32, capUV, capVU time.Duration) {
		iu, iv := pos[u], pos[v]
		pos[u]++
		pos[v]++
		a.net.to[iu], a.net.cap[iu], a.net.rev[iu] = v, capUV, iv
		a.net.to[iv], a.net.cap[iv], a.net.rev[iv] = u, capVU, iu
		a.capStart[iu], a.capStart[iv] = capUV, capVU
		a.arcIdx[i] = iu
	})
}

// warmRepairBudgetFactor bounds the deficit-repair cascade: when tearing
// up the old flow costs more than this many passes over the network, a
// cold start is cheaper and the warm start is abandoned.
const warmRepairBudgetFactor = 4

// rewrite maps the graph's current capacities onto the staged layout
// (topology already verified by matches) and reports whether the solver
// may warm-start and whether any pair's capacity changed. With a previous
// solve present it clamps the old flow onto the new capacities arc by
// arc — untouched capacities keep their residuals — and repairs any
// deficits the clamp created. Without one it rewrites every
// pair and resets every residual to its capacity, so nothing an aborted
// run left behind survives into the cold run that follows; after a
// repair blowout it resets the residuals the same way. inf is the
// graph's current infinity proxy, as for restage.
func (a *CutArena) rewrite(g *Graph, inf time.Duration) (warm, changed bool) {
	a.inf, warm = inf, a.solved
	a.deficit = a.deficit[:0]
	s, t := int32(a.net.s), int32(a.net.t)
	a.eachPair(g.ew, func(i int, u, v int32, newUV, newVU time.Duration) {
		au := a.arcIdx[i]
		av := a.net.rev[au]
		if newUV == a.capStart[au] && newVU == a.capStart[av] {
			return // untouched: keep residuals (and any flow)
		}
		changed = true
		if !warm {
			a.capStart[au], a.capStart[av] = newUV, newVU
			return
		}
		// Clamp the old flow into the new capacity band. f is the signed
		// flow u->v of the previous solve; any part of it the new
		// capacities cannot carry is returned to the endpoints' excesses.
		f := a.capStart[au] - a.net.cap[au]
		nf := max(min(f, newUV), -newVU)
		if nf != f {
			delta := f - nf
			a.st.excess[u] += delta
			a.st.excess[v] -= delta
			if v != s && v != t && a.st.excess[v] < 0 {
				a.deficit = append(a.deficit, v)
			}
			if u != s && u != t && a.st.excess[u] < 0 {
				a.deficit = append(a.deficit, u)
			}
		}
		a.net.cap[au] = newUV - nf
		a.net.cap[av] = newVU + nf
		a.capStart[au], a.capStart[av] = newUV, newVU
	})
	if !warm {
		copy(a.net.cap, a.capStart)
		return false, changed
	}
	if !a.repairDeficits() {
		// Blown budget: tear-up too large, resume is not worth it. The
		// capacities in capStart are already the new ones; reset the
		// residuals to them and run cold.
		a.stats.Fallbacks++
		copy(a.net.cap, a.capStart)
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
				fl := a.capStart[arc] - f.cap[arc] // flow v -> to[arc]
				if fl <= 0 {
					continue
				}
				d := -a.st.excess[v]
				if fl < d {
					d = fl
				}
				f.cap[arc] += d
				f.cap[f.rev[arc]] -= d
				a.st.excess[v] += d
				w := f.to[arc]
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
