package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"repro/internal/graph"
)

// graphSeed fixes the topologies the cut workloads cut. The run's -seed draws
// which edges are re-priced and to what, so each seed is a different
// instance on the same edges: across generator seeds the cold cut took 584
// to 808 ms, across re-pricings of one topology 618 to 740 ms with as much
// difference between repeats of one seed.
const graphSeed = 1

const (
	coldNodes = 100000 // 792 k edges
	// recutNodes is small because warm starts fall back to a cold start at
	// random — which cuts do differs between runs of one seed — and a
	// fallback costs time and allocates. How often they do is a property of
	// the graph and jumps with its size (seed 1, share of all arena cuts):
	// 3000 nodes 5 %, 4000 0.1 %, 5000 2 %, 6000 28 %, 7000 1 %, 8000 43 %,
	// 10 k 29 %, 20 k 12 %, 50 k 23 %, 100 k 17 to 29 %. Where the share is
	// high the end-to-end numbers do not repeat: at 10 k nodes (240 rounds
	// per run) op time spread by 27 % and allocation by 2.2 % over ten
	// seeds, at 100 k (25 rounds) by 34 % and 12 %, against bounds of 25 %
	// and 2 %. At 5000 nodes a run fits 1700 rounds, 70 of its 3400 cuts
	// fall back, and both repeat to under 1 %. The warm path at cut-cold's
	// size is measured by the traced run's probe instead (atScale below),
	// where there is no bound to hold.
	recutNodes   = 5000
	recutRounds  = 16   // per op, so that an op's time averages over the fallbacks in it
	scaleRounds  = 6    // of the traced run's probe at coldNodes, 0.7 s each
	repriceShare = 0.01 // of the edges, per draw
	oracleNodes  = 2000 // Edmonds–Karp is quadratic in this: 240 ms here, 670 ms at 3000
	checkEvery   = 10   // cut-recut ops between cold cross-checks
)

var cutCold = workload{
	name: "cut-cold",
	why:  "staging plus cold push-relabel on 100k nodes and 792k edges with a fresh arena; nothing above graph runs",
	// Synthesis, oracle and reference cut already take about 2 s.
	warmup:    1,
	heapAfter: 8,
	setup: func(e *env) (*instance, error) {
		c, err := newCutGraph(e, coldNodes)
		if err != nil {
			return nil, err
		}
		// Only the graph and its total weight outlive set-up: the re-pricing
		// tables are the harness's, and live_heap_mb is about the system.
		g, total := c.g, c.total
		ref, err := g.MinCut()
		if err != nil {
			return nil, fmt.Errorf("reference cut: %w", err)
		}
		return &instance{
			op: func(int) (float64, error) {
				var cut *graph.Cut
				var err error
				e.rec.do("graph.cold_cut", func() { cut, err = g.MinCutArena(e.ctx, graph.NewCutArena()) })
				if err != nil {
					return 0, err
				}
				if !near(cut.Weight, ref.Weight) {
					return 0, fmt.Errorf("cold cut weighs %v, the reference cut %v", cut.Weight, ref.Weight)
				}
				return cut.Weight / total, nil
			},
			layers: func(m map[string]float64) error {
				graphSizes(g, m)
				if st := e.rec.byName()["graph.cold_cut"]; st != nil {
					m["graph.cold_alloc_bytes_per_edge"] = float64(st.alloc) / float64(st.count()) / float64(g.Edges())
				}
				return nil
			},
		}, nil
	},
}

var cutRecut = workload{
	name: "cut-recut",
	why:  "one long-lived arena on 5000 nodes: 16 rounds of re-price 1% of the edges, re-cut warm, re-cut again unchanged",
	// 2.1 s of rounds on top of the oracle's 0.3 s.
	warmup:    15,
	heapAfter: 40,
	setup: func(e *env) (*instance, error) {
		c, err := newCutGraph(e, recutNodes)
		if err != nil {
			return nil, err
		}
		r := &recut{cutGraph: c, e: e, arena: graph.NewCutArena()}
		if r.last, err = c.g.MinCutArena(e.ctx, r.arena); err != nil {
			return nil, fmt.Errorf("first arena cut: %w", err)
		}
		return &instance{prepare: r.prepare, op: r.op, check: r.check, layers: r.layers}, nil
	},
}

// cutGraph is the synthesized graph with one seed-drawn re-pricing applied,
// plus what is needed to draw further ones without drifting from the
// generator's weights.
type cutGraph struct {
	g     *graph.Graph
	rng   *rand.Rand
	names [][2]string
	base  []float64 // generator weight of each edge
	cur   []float64 // weight now
	total float64   // sum of cur
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func newCutGraph(e *env, nodes int) (*cutGraph, error) {
	// Hold the production cut to the independent oracle on a graph small
	// enough for it, re-priced the same way.
	small := draw(e.cfg.seed, oracleNodes, nil)
	pr, err := small.g.MinCut()
	if err != nil {
		return nil, fmt.Errorf("oracle graph: %w", err)
	}
	ek, err := small.g.MinCutEdmondsKarp()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if !near(pr.Weight, ek.Weight) {
		return nil, fmt.Errorf("push-relabel cut weighs %v, Edmonds–Karp %v", pr.Weight, ek.Weight)
	}
	return draw(e.cfg.seed, e.nodes(nodes), e.rec), nil
}

// nodes is the size of a cut workload's graph: its own, unless the toy-size
// test set a smaller one.
func (e *env) nodes(own int) int {
	if e.cfg.nodes > 0 {
		return e.cfg.nodes
	}
	return own
}

func draw(seed int64, nodes int, rec *recorder) *cutGraph {
	c := &cutGraph{rng: rand.New(rand.NewSource(seed))}
	rec.do("graph.synthesize", func() { c.g = graph.Synthesize(graph.SynthConfig{Nodes: nodes, Seed: graphSeed}) })
	c.names = c.g.EdgeNames()
	c.base = make([]float64, len(c.names))
	for i, n := range c.names {
		c.base[i] = c.g.EdgeWeight(n[0], n[1])
		c.total += c.base[i]
	}
	c.cur = append([]float64(nil), c.base...)
	idx, w := c.batch()
	c.apply(idx, w)
	return c
}

// batch draws one re-pricing: about 1 % of the edges, each to between half
// and one and a half times its generator weight.
func (c *cutGraph) batch() (idx []int, w []float64) {
	n := max(1, int(repriceShare*float64(len(c.names))))
	for k := 0; k < n; k++ {
		i := c.rng.Intn(len(c.names))
		idx = append(idx, i)
		w = append(w, c.base[i]*(0.5+c.rng.Float64()))
	}
	return idx, w
}

func (c *cutGraph) apply(idx []int, w []float64) {
	for k, i := range idx {
		c.g.SetEdgeWeight(c.names[i][0], c.names[i][1], w[k])
		c.total += w[k] - c.cur[i]
		c.cur[i] = w[k]
	}
}

func graphSizes(g *graph.Graph, m map[string]float64) {
	m["graph.nodes"] = float64(g.Len())
	m["graph.edges"] = float64(g.Edges())
}

// recut is cut-recut's state: the graph, its arena and the op in flight.
type recut struct {
	*cutGraph
	e     *env
	arena *graph.CutArena
	idx   [recutRounds][]int
	w     [recutRounds][]float64
	last  *graph.Cut
	// unchangedFallbacks counts re-cuts of an unchanged graph that fell
	// back to a cold start all the same.
	unchangedFallbacks int
}

func (r *recut) prepare(int) {
	for k := range r.idx {
		r.idx[k], r.w[k] = r.batch()
	}
}

func (r *recut) op(int) (float64, error) {
	rec := r.e.rec
	var share float64
	for k := range r.idx {
		var perturbed, unchanged *graph.Cut
		var err error
		rec.do("graph.set_edge_weight", func() { r.apply(r.idx[k], r.w[k]) })
		if rec.do("graph.warm_perturbed", func() { perturbed, err = r.g.MinCutArena(r.e.ctx, r.arena) }); err != nil {
			return 0, err
		}
		before := r.arena.Stats().Fallbacks
		if rec.do("graph.warm_unchanged", func() { unchanged, err = r.g.MinCutArena(r.e.ctx, r.arena) }); err != nil {
			return 0, err
		}
		r.unchangedFallbacks += r.arena.Stats().Fallbacks - before
		if !near(unchanged.Weight, perturbed.Weight) || !near(perturbed.Weight, perturbed.FlowValue) {
			return 0, fmt.Errorf("re-cut weighs %v (flow %v), the unchanged re-cut after it %v",
				perturbed.Weight, perturbed.FlowValue, unchanged.Weight)
		}
		r.last = unchanged
		share += unchanged.Weight / r.total
	}
	return share / recutRounds, nil
}

// check holds the last warm cut of every tenth op to a cold one: same
// weight, same side for every node.
func (r *recut) check(i int) error {
	if i%checkEvery != 0 {
		return nil
	}
	cold, err := r.g.MinCut()
	if err != nil {
		return fmt.Errorf("cold cross-check: %w", err)
	}
	if !near(cold.Weight, r.last.Weight) {
		return fmt.Errorf("warm cut weighs %v, a cold cut of the same graph %v", r.last.Weight, cold.Weight)
	}
	if !reflect.DeepEqual(cold.Assignment, r.last.Assignment) {
		return fmt.Errorf("warm and cold cuts of the same graph place nodes differently")
	}
	return nil
}

func (r *recut) layers(m map[string]float64) error {
	graphSizes(r.g, m)
	st := r.arena.Stats()
	m["graph.arena_cuts"] = float64(st.Cuts)
	m["graph.arena_warm"] = float64(st.Warm)
	m["graph.arena_cold"] = float64(st.Cold)
	m["graph.arena_restaged"] = float64(st.Restaged)
	m["graph.arena_fallbacks"] = float64(st.Fallbacks)
	m["graph.warm_unchanged_fallbacks"] = float64(r.unchangedFallbacks)
	m["graph.warm_fallback_share"] = 100 * float64(st.Fallbacks) / float64(st.Cuts)
	// What the arena alone keeps alive: the heap with it and without it.
	with := liveHeapMB()
	r.arena = nil
	m["graph.arena_live_mb"] = with - liveHeapMB()
	return r.atScale(m)
}

// atScale runs a few rounds on cut-cold's graph with an arena of their own,
// so that the warm path is also timed at the size of ROADMAP's figures, with
// that size's share of fallbacks. Too few rounds fit a run for a bound to
// hold on them, so these are per-layer numbers only.
func (r *recut) atScale(m map[string]float64) error {
	rec, ctx := r.e.rec, r.e.ctx
	c := draw(r.e.cfg.seed, r.e.nodes(coldNodes), nil)
	arena := graph.NewCutArena()
	if _, err := c.g.MinCutArena(ctx, arena); err != nil {
		return fmt.Errorf("first cut at scale: %w", err)
	}
	for k := 0; k < scaleRounds; k++ {
		c.apply(c.batch())
		var perturbed, unchanged *graph.Cut
		var err error
		if rec.do("graph.scale_warm_perturbed", func() { perturbed, err = c.g.MinCutArena(ctx, arena) }); err != nil {
			return err
		}
		if rec.do("graph.scale_warm_unchanged", func() { unchanged, err = c.g.MinCutArena(ctx, arena) }); err != nil {
			return err
		}
		if !near(unchanged.Weight, perturbed.Weight) || !near(perturbed.Weight, perturbed.FlowValue) {
			return fmt.Errorf("re-cut at scale weighs %v (flow %v), the unchanged re-cut after it %v",
				perturbed.Weight, perturbed.FlowValue, unchanged.Weight)
		}
	}
	by := rec.byName()
	m["graph.scale_nodes"] = float64(c.g.Len())
	m["graph.scale_warm_perturbed_ms_p50"] = percentile(by["graph.scale_warm_perturbed"].ms, 50)
	m["graph.scale_warm_unchanged_ms_p50"] = percentile(by["graph.scale_warm_unchanged"].ms, 50)
	st := arena.Stats()
	m["graph.scale_warm_fallback_share"] = 100 * float64(st.Fallbacks) / float64(st.Cuts)
	return nil
}
