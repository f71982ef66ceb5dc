package graph

import (
	"context"
	"fmt"
	"slices"
)

// CutArena makes repeated minimum cuts cheap. Adaptive repartitioning
// re-cuts the *same topology* once per network model and per profile
// window: the node set, edge set, welds, and pins are fixed while only
// the edge pricing moves. A one-shot MinCut pays the full build every
// time — stage the arcs, lay out the CSR arrays, allocate the solver
// scratch, run push-relabel from zero flow. The arena keeps all of that
// alive between cuts:
//
//   - the CSR arrays (head/to/rev/cap), the staged arc list, and the
//     per-pair arc index, so an unchanged topology only rewrites cap
//     instead of re-staging and re-allocating;
//   - the highest-label solver scratch (buckets, label lists, BFS
//     queues) and the source-side extraction buffers;
//   - the previous solve's residual capacities and excess vector, which
//     seed a warm start: when only weights moved, the old preflow is
//     clamped onto the new capacities (saturating or relaxing exactly
//     the arcs whose capacity changed, with a budget-capped cascade
//     repairing any node the clamp drove into deficit) and push-relabel
//     resumes from there instead of from zero flow.
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
	staged bool // CSR arrays reflect the staged topology below
	solved bool // net.cap/st.excess hold a completed solve over capStart

	n, s, t int
	inf     float64

	// Staged topology, copied from the graph's store at restage and
	// compared with it, array against array, to decide whether a new cut
	// may reuse the layout. The match is by content, not by graph identity:
	// callers that rebuild an equal graph for every cut still rewrite
	// instead of restaging.
	edgeKeys  []pairKey
	colocKeys []pairKey
	pin       []int8

	pairs  []csrArc // staged arc pairs, in layout order: edges, welds, pins
	arcIdx []int32  // arc index of each pair's u-half (-1 for dropped self-loops)

	// freeFloat marks nodes in components touching no pinned node (Coign's
	// free-floating rule), a topology-only fact computed once per staging
	// instead of running a union-find over every edge on every cut.
	freeFloat []bool

	net      csrNet
	capStart []float64 // capacities the last solve started from, per arc
	deg      []int32   // layout scratch

	st      hiprState
	reach   []bool  // sourceSide scratch
	bfsq    []int32 // sourceSide scratch
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
	// Restaged counts cuts that had to rebuild the staged arc list
	// because the topology changed.
	Restaged int
	// Fallbacks counts warm starts abandoned because the deficit-repair
	// cascade blew its work budget.
	Fallbacks int
}

// NewCutArena returns an empty arena.
func NewCutArena() *CutArena { return &CutArena{} }

// Stats reports the arena's cut counters.
func (a *CutArena) Stats() CutArenaStats { return a.stats }

// Reset drops the solved state and the staged topology, forcing the next
// cut to restage (array capacity is kept).
func (a *CutArena) Reset() {
	a.staged = false
	a.solved = false
}

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
// Cut.
func (g *Graph) minCutArena(ctx context.Context, a *CutArena, pin []int8) (*Cut, error) {
	if err := g.validatePinned(pin); err != nil {
		return nil, err
	}
	a.stats.Cuts++
	warm := false
	if a.matches(g, pin) {
		warm = a.rewrite(g)
	} else {
		a.restage(g, pin)
		a.stats.Restaged++
	}
	flow, err := a.net.maxFlowHL(ctx, &a.st, warm)
	if err != nil {
		// An aborted solve leaves the residual state mid-run; the next
		// cut must not warm-start from it.
		a.solved = false
		return nil, err
	}
	a.solved = true
	if warm {
		a.stats.Warm++
	} else {
		a.stats.Cold++
	}
	if cap(a.reach) < a.net.n {
		a.reach = make([]bool, a.net.n)
	}
	onSource := a.net.sourceSideInto(a.reach[:a.net.n], a.bfsq)
	return a.extractCut(g, onSource, flow)
}

// extractCut turns the solver's source-side indicator into a Cut: it
// applies Coign's free-floating-component rule, prices the crossing edges
// under the graph's weights in store order, and rejects any cut that
// splits a co-location constraint.
func (a *CutArena) extractCut(g *Graph, onSource []bool, flow float64) (*Cut, error) {
	cut := &Cut{Assignment: make(map[string]Side, g.Len()), FlowValue: flow}
	src := func(v int) bool { return onSource[v] || a.freeFloat[v] }
	for i, name := range g.names {
		if src(i) {
			cut.Assignment[name] = SourceSide
		} else {
			cut.Assignment[name] = SinkSide
		}
	}
	w, welds := g.crossing(func(lo, hi int) bool { return src(lo) != src(hi) })
	if welds > 0 {
		return nil, fmt.Errorf("graph: minimum cut crosses a co-location constraint")
	}
	cut.Weight = w
	if w > a.inf {
		return nil, fmt.Errorf("graph: cut weight %g exceeds infinity proxy %g", w, a.inf)
	}
	return cut, nil
}

// matches reports whether the staged topology is exactly the graph's
// current one (same nodes, edge keys, weld keys, and pin assignment), so
// the CSR layout can be reused with only capacities rewritten. Both sides
// are flat and sorted, so it is three array compares.
func (a *CutArena) matches(g *Graph, pin []int8) bool {
	return a.staged && slices.Equal(a.pin, pin) &&
		slices.Equal(a.edgeKeys, g.ekey) && slices.Equal(a.colocKeys, g.coloc)
}

// restage rebuilds the staged arc list and the CSR layout from the
// graph's store, reusing every backing array with enough capacity. Store
// order makes the network layout, and with it the particular minimum cut
// the solver lands on when several tie, identical run to run. The solver
// then runs cold: a changed topology invalidates the previous flow.
func (a *CutArena) restage(g *Graph, pin []int8) {
	n := g.Len()
	a.n, a.s, a.t = n+2, n, n+1
	a.edgeKeys = append(a.edgeKeys[:0], g.ekey...)
	a.colocKeys = append(a.colocKeys[:0], g.coloc...)
	a.pin = append(a.pin[:0], pin...)

	a.inf = g.infinityProxy()
	a.pairs = a.pairs[:0]
	// The free-floating-component rule depends only on the topology being
	// staged: cache it so per-cut extraction is a flat array scan.
	uf := newUnionFind(n)
	for i, k := range a.edgeKeys {
		lo, hi := k.nodes()
		uf.union(lo, hi)
		a.pairs = append(a.pairs, csrArc{u: int32(lo), v: int32(hi), capUV: g.ew[i], capVU: g.ew[i]})
	}
	for _, k := range a.colocKeys {
		lo, hi := k.nodes()
		uf.union(lo, hi)
		a.pairs = append(a.pairs, csrArc{u: int32(lo), v: int32(hi), capUV: a.inf, capVU: a.inf})
	}
	// Pins: one directed infinite arc from the source terminal to every
	// client-pinned node, and from every server-pinned node to the sink.
	pinnedComp := make([]bool, n)
	for v, side := range pin {
		switch Side(side) {
		case SourceSide:
			a.pairs = append(a.pairs, csrArc{u: int32(a.s), v: int32(v), capUV: a.inf})
		case SinkSide:
			a.pairs = append(a.pairs, csrArc{u: int32(v), v: int32(a.t), capUV: a.inf})
		default:
			continue
		}
		pinnedComp[uf.find(v)] = true
	}
	a.layout()

	if cap(a.freeFloat) < n {
		a.freeFloat = make([]bool, n)
	}
	a.freeFloat = a.freeFloat[:n]
	for i := range a.freeFloat {
		a.freeFloat[i] = !pinnedComp[uf.find(i)]
	}

	a.staged = true
	a.solved = false
}

// layout performs the counting-sort CSR layout of a.pairs into the
// arena-owned arrays, recording each pair's u-half arc index so capacity
// rewrites can find their slots without re-staging. Self-loop pairs
// (u == v) are dropped: a u->u arc can never cross a cut, and laying one
// out would corrupt the reverse-arc pairing — both halves read the same
// position slot before either increments it, so both land on one index
// and the adjacent slot is left zeroed with a dangling rev pointer.
func (a *CutArena) layout() {
	n := a.n
	m := 0
	for _, p := range a.pairs {
		if p.u != p.v {
			m++
		}
	}
	grow32 := func(s []int32, n int) []int32 {
		if cap(s) < n {
			return make([]int32, n)
		}
		return s[:n]
	}
	growF := func(s []float64, n int) []float64 {
		if cap(s) < n {
			return make([]float64, n)
		}
		return s[:n]
	}
	a.net.n, a.net.s, a.net.t = a.n, a.s, a.t
	a.net.head = grow32(a.net.head, n+1)
	a.net.to = grow32(a.net.to, 2*m)
	a.net.rev = grow32(a.net.rev, 2*m)
	a.net.cap = growF(a.net.cap, 2*m)
	a.capStart = growF(a.capStart, 2*m)
	a.arcIdx = grow32(a.arcIdx, len(a.pairs))
	a.deg = grow32(a.deg, n)

	for i := range a.deg {
		a.deg[i] = 0
	}
	for _, p := range a.pairs {
		if p.u == p.v {
			continue
		}
		a.deg[p.u]++
		a.deg[p.v]++
	}
	a.net.head[0] = 0
	for i := 0; i < n; i++ {
		a.net.head[i+1] = a.net.head[i] + a.deg[i]
	}
	pos := a.deg // reuse as the write cursor
	copy(pos, a.net.head[:n])
	for i, p := range a.pairs {
		if p.u == p.v {
			a.arcIdx[i] = -1
			continue
		}
		iu, iv := pos[p.u], pos[p.v]
		pos[p.u]++
		pos[p.v]++
		a.net.to[iu], a.net.cap[iu], a.net.rev[iu] = p.v, p.capUV, iv
		a.net.to[iv], a.net.cap[iv], a.net.rev[iv] = p.u, p.capVU, iu
		a.capStart[iu], a.capStart[iv] = p.capUV, p.capVU
		a.arcIdx[i] = iu
	}
}

// warmRepairBudgetFactor bounds the deficit-repair cascade: when tearing
// up the old flow costs more than this many passes over the network, a
// cold start is cheaper and the warm start is abandoned.
const warmRepairBudgetFactor = 4

// rewrite maps the graph's current capacities onto the staged layout
// (topology already verified by matches) and reports whether the solver
// may warm-start. With a previous solve present it clamps the old flow
// onto the new capacities arc by arc — untouched capacities keep their
// residuals bit-for-bit — and repairs any deficits the clamp created;
// without one (or after a repair blowout) it resets residuals to the new
// capacities for a cold run.
func (a *CutArena) rewrite(g *Graph) bool {
	a.inf = g.infinityProxy()
	warm := a.solved
	a.deficit = a.deficit[:0]

	welds := len(a.edgeKeys) + len(a.colocKeys)
	newCaps := func(i int) (float64, float64) {
		switch {
		case i < len(a.edgeKeys):
			return g.ew[i], g.ew[i]
		case i < welds:
			return a.inf, a.inf
		default:
			return a.inf, 0 // terminal arcs are directed
		}
	}
	for i := range a.pairs {
		au := a.arcIdx[i]
		if au < 0 {
			continue
		}
		av := a.net.rev[au]
		newUV, newVU := newCaps(i)
		if newUV == a.capStart[au] && newVU == a.capStart[av] {
			continue // untouched: keep residuals (and any flow) bit-for-bit
		}
		if !warm {
			a.capStart[au], a.net.cap[au] = newUV, newUV
			a.capStart[av], a.net.cap[av] = newVU, newVU
			continue
		}
		// Clamp the old flow into the new capacity band. f is the signed
		// flow u->v of the previous solve; any part of it the new
		// capacities cannot carry is returned to the endpoints' excesses.
		u, v := a.pairs[i].u, a.pairs[i].v
		f := a.capStart[au] - a.net.cap[au]
		nf := f
		if nf > newUV {
			nf = newUV
		}
		if nf < -newVU {
			nf = -newVU
		}
		if nf != f {
			delta := f - nf
			a.st.excess[u] += delta
			a.st.excess[v] -= delta
			if int(v) != a.s && int(v) != a.t && a.st.excess[v] < -capEps {
				a.deficit = append(a.deficit, v)
			}
			if int(u) != a.s && int(u) != a.t && a.st.excess[u] < -capEps {
				a.deficit = append(a.deficit, u)
			}
		}
		a.net.cap[au] = newUV - nf
		a.net.cap[av] = newVU + nf
		a.capStart[au], a.capStart[av] = newUV, newVU
	}
	if !warm {
		return false
	}
	if !a.repairDeficits() {
		// Blown budget: tear-up too large, resume is not worth it. The
		// capacities in capStart are already the new ones; reset the
		// residuals to them and run cold.
		a.stats.Fallbacks++
		copy(a.net.cap, a.capStart)
		return false
	}
	return true
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
		for a.st.excess[v] < -capEps {
			progressed := false
			for arc := f.head[v]; arc < f.head[v+1] && a.st.excess[v] < -capEps; arc++ {
				work++
				fl := a.capStart[arc] - f.cap[arc] // flow v -> to[arc]
				if fl <= capEps {
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
				if int(w) != f.s && int(w) != f.t && a.st.excess[w] < -capEps {
					a.deficit = append(a.deficit, w)
				}
			}
			if work > budget {
				return false
			}
			if !progressed {
				// No outgoing flow left to pull back; cannot happen for a
				// consistent preflow, but never spin on float dust.
				return false
			}
		}
	}
	return true
}
