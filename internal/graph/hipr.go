package graph

import (
	"context"
	"math"
	"time"
)

// Highest-label push-relabel (the hi_pr family of Cherkassky and
// Goldberg) over the CSR network. Three things distinguish it from the
// relabel-to-front (lift-to-front) order of CLRS that the paper cites
// [ref 9]:
//
//   - selection: active nodes are kept in per-height bucket stacks and
//     always discharged from the highest label, instead of scanning a
//     global node list that restarts from the front after every relabel
//     (the restart is what sends relabel-to-front quadratic on large
//     graphs);
//   - the gap heuristic: when a height h empties while smaller heights
//     below n remain occupied, no residual path through h can reach the
//     sink, so every node above the gap is lifted to n (dormant) at once;
//   - periodic global relabeling: after a bounded amount of discharge
//     work, one reverse BFS from the sink restores exact residual
//     distances.
//
// The run is phase 1 only — a maximum preflow into t. That is enough for
// a minimum cut: the nodes unable to reach t in the residual network form
// the source side, every arc leaving that set is saturated, no flow
// crosses back into it, and excess parked on dormant nodes never reaches
// t, so the cut capacity equals excess[t] (see csrNet.distToSink). The
// excess-return phase the full max-flow algorithm needs is skipped
// entirely.
//
// All solver scratch lives in hiprState so a CutArena (arena.go) can run
// repeated cuts without re-allocating; a warm run additionally keeps the
// excess vector and the residual capacities of a previous solve, seeding
// the discharge loop from an already-feasible preflow instead of from
// zero flow.

// cancelCheckMask paces the cancellation poll in the discharge loop: one
// channel select per 1024 node pops is invisible next to the discharge
// work itself, yet bounds the latency of a cancelled cut to a few
// thousand pushes.
const cancelCheckMask = 1<<10 - 1

// hiprState is the per-run scratch of the highest-label core: heights,
// excesses, current-arc pointers, the active bucket stacks, the label
// lists behind the gap heuristic, and the reverse-BFS queue and distances
// (distToSink), which an arena also reads the finished cut from. An arena
// keeps one of these alive across cuts.
type hiprState struct {
	height []int32
	excess []time.Duration
	cur    []int32 // current-arc pointer, absolute arc index

	// Active nodes: singly-linked bucket stacks per height < n.
	activeNext []int32
	activeHead []int32
	inActive   []bool

	// All non-dormant, non-terminal nodes: doubly-linked label lists per
	// height < n, backing the gap heuristic.
	labelNext []int32
	labelPrev []int32
	labelHead []int32
	count     []int32

	dist  []int32
	queue []int32
}

// ensure sizes every scratch array for an n-node network, reusing backing
// stores from previous runs whenever they are large enough.
func (st *hiprState) ensure(n int) {
	st.height = grow(st.height, n)
	st.excess = grow(st.excess, n)
	st.cur = grow(st.cur, n)
	st.activeNext = grow(st.activeNext, n)
	st.activeHead = grow(st.activeHead, n+1)
	st.inActive = grow(st.inActive, n)
	st.labelNext = grow(st.labelNext, n)
	st.labelPrev = grow(st.labelPrev, n)
	st.labelHead = grow(st.labelHead, n+1)
	st.count = grow(st.count, n+1)
	st.dist = grow(st.dist, n)
	st.queue = grow(st.queue, n)
}

// hiprRun is one invocation of the core over a network, binding the
// scratch state to the network and the bucket bookkeeping.
type hiprRun struct {
	f       *csrNet
	st      *hiprState
	n       int
	highest int
	work    int
}

func (r *hiprRun) link(v, h int32) {
	st := r.st
	st.labelPrev[v] = -1
	st.labelNext[v] = st.labelHead[h]
	if st.labelHead[h] != -1 {
		st.labelPrev[st.labelHead[h]] = v
	}
	st.labelHead[h] = v
	st.count[h]++
}

func (r *hiprRun) unlink(v, h int32) {
	st := r.st
	if st.labelPrev[v] != -1 {
		st.labelNext[st.labelPrev[v]] = st.labelNext[v]
	} else {
		st.labelHead[h] = st.labelNext[v]
	}
	if st.labelNext[v] != -1 {
		st.labelPrev[st.labelNext[v]] = st.labelPrev[v]
	}
	st.count[h]--
}

func (r *hiprRun) activate(v int32) {
	st := r.st
	h := st.height[v]
	if st.inActive[v] || int(v) == r.f.s || int(v) == r.f.t || h >= int32(r.n) {
		return
	}
	st.activeNext[v] = st.activeHead[h]
	st.activeHead[h] = v
	st.inActive[v] = true
	if int(h) > r.highest {
		r.highest = int(h)
	}
}

// setHeight moves a non-terminal node between label lists. Dormant
// nodes (height n) leave the lists for good.
func (r *hiprRun) setHeight(v, newH int32) {
	st := r.st
	oldH := st.height[v]
	if oldH < int32(r.n) {
		r.unlink(v, oldH)
	}
	st.height[v] = newH
	if newH < int32(r.n) {
		r.link(v, newH)
	}
}

// gap lifts every node strictly above an emptied height to dormancy:
// any residual path to t from above the gap would need a node at the
// gap height.
func (r *hiprRun) gap(h int32) {
	st := r.st
	for hh := h + 1; hh < int32(r.n); hh++ {
		for st.labelHead[hh] != -1 {
			v := st.labelHead[hh]
			r.unlink(v, hh)
			st.height[v] = int32(r.n)
		}
	}
}

// distToSink fills st.dist with every node's residual distance to t, -1
// where t is unreachable, by one reverse BFS over st.queue (each node
// enters it at most once, so n slots hold it). Global relabeling turns the
// distances into heights; after a finished solve they are the cut.
//
// After a phase-1 (max-preflow) run the nodes that cannot reach t are the
// source side of a minimum cut, and phase 1 alone makes that exact: every
// arc crossing out of the set is saturated and no flow crosses back, so
// the cut's capacity equals the preflow value at t — which is why the
// highest-label core never needs the second (excess-return) phase. The
// partition is also the same for every maximum preflow on the network
// (the sink side of the t-minimal minimum cut), so warm-started and cold
// runs agree on it even when several cuts tie.
func (f *csrNet) distToSink(st *hiprState) {
	dist, queue := st.dist, st.queue
	for i := range dist {
		dist[i] = -1
	}
	dist[f.t] = 0
	queue[0] = int32(f.t)
	for head, tail := 0, 1; head < tail; head++ {
		x := queue[head]
		for a := f.head[x]; a < f.head[x+1]; a++ {
			v := f.to[a]
			// v reaches x iff residual(v -> x) > 0.
			if dist[v] == -1 && f.cap[f.rev[a]] > 0 {
				dist[v] = dist[x] + 1
				queue[tail] = v
				tail++
			}
		}
	}
}

// globalRelabel restores exact residual distances to t and rebuilds
// the label lists and active buckets from scratch. Stale active-bucket
// entries are discarded by the pop guard in the main loop.
func (r *hiprRun) globalRelabel() {
	f, st, n := r.f, r.st, r.n
	f.distToSink(st)
	for h := 0; h <= n; h++ {
		st.activeHead[h] = -1
		st.labelHead[h] = -1
		st.count[h] = 0
	}
	r.highest = -1
	for v := 0; v < n; v++ {
		if v == f.s || v == f.t {
			continue
		}
		h := int32(n)
		if st.dist[v] >= 0 && st.dist[v] < int32(n) {
			h = st.dist[v]
		}
		if st.height[v] > h {
			// Heights never decrease within a run; a label already at or
			// above the BFS distance stays (dormant nodes stay dormant).
			h = st.height[v]
		}
		if h > int32(n) {
			h = int32(n)
		}
		st.height[v] = h
		st.inActive[v] = false
		st.cur[v] = f.head[v]
		if h < int32(n) {
			r.link(int32(v), h)
			if st.excess[v] > 0 {
				r.activate(int32(v))
			}
		}
	}
	st.height[f.s] = int32(n)
	st.height[f.t] = 0
	r.work = 0
}

// maxFlowHL runs phase-1 highest-label push-relabel over f with st's
// scratch and returns the max-flow value (the preflow accumulated at t).
// A cold run (warm=false) starts from zero flow: f.cap must hold the full
// capacities and every excess is reset. A warm run keeps f.cap and
// st.excess exactly as the caller prepared them — a feasible preflow
// (every non-terminal excess >= 0) over the current capacities — and only
// resets heights, so the discharge loop finishes the remaining flow
// instead of redoing all of it. In both modes heights are rebuilt from an
// exact reverse BFS, which is a valid labeling for any feasible preflow.
// A cancelled context aborts the run between discharge batches with the
// context's error.
func (f *csrNet) maxFlowHL(ctx context.Context, st *hiprState, warm bool) (time.Duration, error) {
	n := f.n
	done := ctx.Done()
	m := len(f.to)
	st.ensure(n)
	for i := range st.height {
		st.height[i] = 0
	}
	if !warm {
		for i := range st.excess {
			st.excess[i] = 0
		}
	}

	r := &hiprRun{f: f, st: st, n: n, highest: -1}
	// workLimit paces global relabeling: one O(n+m) reverse BFS per
	// O(n+m) discharge work keeps residual distances near exact without
	// dominating the run.
	workLimit := 6*n + m/2

	r.globalRelabel()
	// Saturate the source's residual out-arcs to create (or top up) the
	// preflow. On a warm run most of these arcs are already saturated from
	// the previous solve; only capacity that grew since then moves.
	for a := f.head[f.s]; a < f.head[f.s+1]; a++ {
		if f.cap[a] == 0 {
			continue
		}
		amt := f.cap[a]
		f.cap[a] = 0
		f.cap[f.rev[a]] += amt
		v := f.to[a]
		st.excess[v] += amt
		st.excess[f.s] -= amt
		r.activate(v)
	}

	height, excess, cur := st.height, st.excess, st.cur
	var pops uint
	for {
		if pops&cancelCheckMask == 0 && done != nil {
			select {
			case <-done:
				return 0, ctx.Err()
			default:
			}
		}
		pops++
		if r.work > workLimit {
			r.globalRelabel()
		}
		for r.highest >= 0 && st.activeHead[r.highest] == -1 {
			r.highest--
		}
		if r.highest < 0 {
			break
		}
		u := st.activeHead[r.highest]
		st.activeHead[r.highest] = st.activeNext[u]
		st.inActive[u] = false
		// Pop guard: the gap heuristic and global relabeling leave stale
		// bucket entries behind rather than unthreading them.
		if height[u] >= int32(n) || excess[u] <= 0 {
			continue
		}

		// Discharge u: push along admissible current arcs, relabel when
		// they run out, stop when the excess is gone or u goes dormant.
		for {
			aEnd := f.head[u+1]
			a := cur[u]
			for ; a < aEnd; a++ {
				if f.cap[a] == 0 {
					continue
				}
				v := f.to[a]
				if height[u] != height[v]+1 {
					continue
				}
				amt := excess[u]
				if f.cap[a] < amt {
					amt = f.cap[a]
				}
				f.cap[a] -= amt
				f.cap[f.rev[a]] += amt
				excess[u] -= amt
				excess[v] += amt
				if !st.inActive[v] {
					r.activate(v)
				}
				if excess[u] == 0 {
					break
				}
			}
			r.work += int(a-cur[u]) + 1
			if excess[u] == 0 {
				// The arc at a may hold leftover capacity; resume there.
				cur[u] = a
				break
			}
			// Arcs exhausted: relabel to one above the lowest residual
			// neighbor.
			oldH := height[u]
			minH := int32(math.MaxInt32)
			for a := f.head[u]; a < aEnd; a++ {
				if f.cap[a] > 0 && height[f.to[a]] < minH {
					minH = height[f.to[a]]
				}
			}
			r.work += int(aEnd - f.head[u])
			newH := int32(n)
			if minH != int32(math.MaxInt32) && minH+1 < int32(n) {
				newH = minH + 1
			}
			r.setHeight(u, newH)
			cur[u] = f.head[u]
			if st.count[oldH] == 0 && oldH > 0 && oldH < int32(n) {
				r.gap(oldH)
			}
			if height[u] >= int32(n) {
				break // dormant: the remaining excess never reaches t
			}
		}
	}
	return excess[f.t], nil
}
