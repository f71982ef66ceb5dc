package graph

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// checkCSRInvariants fails unless offsets are monotone and cover every arc
// exactly once, the reverse-arc mapping is an involution, and every arc's
// reverse lives in the target node's row.
func checkCSRInvariants(t *testing.T, net *csrNet) {
	t.Helper()
	if len(net.head) != net.n+1 || int(net.head[0]) != 0 || int(net.head[net.n]) != len(net.to) {
		t.Fatalf("head bounds broken: %d..%d over %d arcs", net.head[0], net.head[net.n], len(net.to))
	}
	if len(net.rev) != len(net.to) || len(net.cap) != len(net.to) {
		t.Fatal("parallel arc arrays disagree on length")
	}
	owner := make([]int32, len(net.to))
	for u := 0; u < net.n; u++ {
		if net.head[u] > net.head[u+1] {
			t.Fatalf("head not monotone at node %d", u)
		}
		for a := net.head[u]; a < net.head[u+1]; a++ {
			owner[a] = int32(u)
		}
	}
	for a := range net.to {
		r := net.rev[a]
		if int(net.rev[r]) != a {
			t.Fatalf("rev not an involution at arc %d", a)
		}
		if owner[r] != net.to[a] || net.to[r] != owner[a] {
			t.Fatalf("arc %d: reverse arc lives in node %d, target is %d", a, owner[r], net.to[a])
		}
	}
}

// checkResidualPairs fails unless the arena's residual network holds the
// graph's store: walking the store's pairs in layout order (edges, welds,
// pins) with a per-node cursor from head must find each pair's two arcs,
// pointing at each other, whose residuals sum to the pair's capacities —
// 2w for an edge of weight w, 2·inf for a weld, inf for a pin. Every arc
// must then carry a flow, capacity minus residual, of at most its
// capacity, and every node's excess must be its net inflow.
func checkResidualPairs(t *testing.T, g *Graph, a *CutArena) {
	t.Helper()
	net := &a.net
	inf, err := g.infinityProxy()
	if err != nil {
		t.Fatal(err)
	}
	capOf := make([]time.Duration, len(net.to))
	pos := slices.Clone(net.head[:net.n])
	pair := func(u, v int32, capUV, capVU time.Duration) {
		au, av := pos[u], pos[v]
		pos[u]++
		pos[v]++
		if net.to[au] != v || net.to[av] != u || net.rev[au] != av {
			t.Fatalf("pair %d-%d: arcs %d and %d are not its two halves", u, v, au, av)
		}
		if sum := net.cap[au] + net.cap[av]; sum != capUV+capVU {
			t.Fatalf("pair %d-%d: residuals sum to %v, capacities to %v", u, v, sum, capUV+capVU)
		}
		capOf[au], capOf[av] = capUV, capVU
	}
	for i, k := range g.ekey {
		lo, hi := k.nodes()
		pair(int32(lo), int32(hi), g.ew[i], g.ew[i])
	}
	for _, k := range g.coloc {
		lo, hi := k.nodes()
		pair(int32(lo), int32(hi), inf, inf)
	}
	for v, side := range g.pin {
		switch Side(side) {
		case SourceSide:
			pair(int32(net.s), int32(v), inf, 0)
		case SinkSide:
			pair(int32(v), int32(net.t), inf, 0)
		}
	}
	for u := 0; u < net.n; u++ {
		var in time.Duration
		for arc := net.head[u]; arc < net.head[u+1]; arc++ {
			if net.cap[arc] < 0 {
				t.Fatalf("arc %d: residual %v, flow above capacity %v", arc, net.cap[arc], capOf[arc])
			}
			in += net.cap[arc] - capOf[arc]
		}
		if a.st.excess[u] != in {
			t.Fatalf("node %d: excess %v, net inflow %v", u, a.st.excess[u], in)
		}
	}
}

// TestColdCutBytesPerEdge holds a cold cut to one copy of the graph and
// its network: a fresh arena's cut of a settled 20k-node graph allocates
// at most 56 bytes per edge (49.5 measured). Keeping each arc's start
// capacity and each pair's arc index beside the residuals cost 69.7;
// staging the arc pairs in a list of their own before the CSR layout cost
// 230. Not parallel: TotalAlloc counts every goroutine's allocations.
//
//lint:allow paralleltest TotalAlloc is process-wide
func TestColdCutBytesPerEdge(t *testing.T) {
	g := Synthesize(SynthConfig{Nodes: 20000, Seed: 1})
	edges := g.Edges() // settles the store outside the measured cut
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := g.MinCutArena(context.Background(), NewCutArena())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(edges); perEdge > 56 {
		t.Fatalf("cold cut allocated %.1f B/edge over %d edges, want <= 56", perEdge, edges)
	}
}

// sideOf returns the side a cut put the named node on.
func sideOf(c *Cut, name string) Side { return c.Assignment[slices.Index(c.names, name)] }

// byName returns a cut's sides keyed by node name, the form
// EvaluateAssignmentDetail prices.
func byName(c *Cut) map[string]Side {
	m := make(map[string]Side, len(c.Assignment))
	for i, s := range c.Assignment {
		m[c.names[i]] = s
	}
	return m
}

// TestPropertyArenaWarmMatchesCold drives the warm-start path over the
// 150-seed constrained generator: cut through one arena, re-cut
// unchanged (served from the last solve), then perturb a random subset of edge
// weights — which also moves the infinity proxy, so pin and weld arcs
// change too — and re-cut warm. Every arena cut must agree with a fresh
// one-shot cold cut and the Edmonds–Karp oracle not just on weight but
// on the exact assignment: the source side of a phase-1 run is the
// t-minimal minimum cut, identical for every maximum preflow.
func TestPropertyArenaWarmMatchesCold(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	totalWarm, totalFallback := 0, 0
	for seed := int64(0); seed < 150; seed++ {
		g := constrainedRandomGraph(seed)
		a := NewCutArena()

		first, err := g.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("seed %d: first arena cut: %v", seed, err)
		}
		checkResidualPairs(t, g, a)
		oneShot, err := g.MinCut()
		if err != nil {
			t.Fatalf("seed %d: one-shot: %v", seed, err)
		}
		if !slices.Equal(first.Assignment, oneShot.Assignment) || first.Cost != oneShot.Cost {
			t.Fatalf("seed %d: arena cold cut differs from one-shot", seed)
		}

		again, err := g.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("seed %d: unchanged re-cut: %v", seed, err)
		}
		checkResidualPairs(t, g, a)
		if !slices.Equal(again.Assignment, first.Assignment) || again.Cost != first.Cost {
			t.Fatalf("seed %d: unchanged re-cut changed the cut", seed)
		}

		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for _, e := range g.EdgeNames() {
			if rng.Intn(2) == 0 {
				g.SetEdgeCost(e[0], e[1], scale(g.EdgeCost(e[0], e[1]), 0.25+1.5*rng.Float64()))
			}
		}
		warm, err := g.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("seed %d: warm perturbed cut: %v", seed, err)
		}
		checkResidualPairs(t, g, a)
		cold, err := g.MinCut()
		if err != nil {
			t.Fatalf("seed %d: cold perturbed cut: %v", seed, err)
		}
		ek, err := g.MinCutEdmondsKarp()
		if err != nil {
			t.Fatalf("seed %d: oracle on perturbed graph: %v", seed, err)
		}
		if warm.Cost != cold.Cost || warm.Cost != ek.Cost {
			t.Fatalf("seed %d: weights diverge: warm=%v cold=%v ek=%v", seed, warm.Cost, cold.Cost, ek.Cost)
		}
		if !slices.Equal(warm.Assignment, cold.Assignment) {
			t.Fatalf("seed %d: warm and cold assignments differ", seed)
		}
		// Free-floating nodes reach no pin, so no warm or cold BFS from t
		// reaches them: they stay on the client.
		for _, cut := range []*Cut{again, warm} {
			for _, free := range []string{"float1", "float2", "lonely"} {
				if sideOf(cut, free) != SourceSide {
					t.Fatalf("seed %d: free node %s on %v after a warm re-cut", seed, free, sideOf(cut, free))
				}
			}
		}

		st := a.Stats()
		if st.Cuts != 3 || st.Restaged != 1 {
			t.Fatalf("seed %d: stats %+v: want 3 cuts, 1 restage", seed, st)
		}
		if st.Warm+st.Cold+st.Reused != st.Cuts {
			t.Fatalf("seed %d: stats %+v: warm+cold+reused != cuts", seed, st)
		}
		if st.Reused != 1 {
			t.Fatalf("seed %d: stats %+v: unchanged re-cut should have reused the last solve", seed, st)
		}
		totalWarm += st.Warm
		totalFallback += st.Fallbacks
	}
	// The suite as a whole must actually exercise warm resumes of changed
	// capacities, not fall back to cold on every perturbation. Only the
	// perturbed re-cuts count: the unchanged ones reuse their solve.
	if totalWarm < 100 {
		t.Fatalf("only %d warm cuts across 150 seeds (fallbacks: %d); warm path not exercised", totalWarm, totalFallback)
	}
}

// TestArenaPerturbRestoreByteIdentical: N successive arena cuts with
// weights perturbed and then restored must reproduce the
// one-shot cut's Assignment JSON byte for byte — the repeated-cut
// determinism contract the pipeline property harness relies on.
func TestArenaPerturbRestoreByteIdentical(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	g := Synthesize(SynthConfig{Nodes: 1500, Seed: 7})
	oneShot, err := g.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(oneShot.Assignment)
	if err != nil {
		t.Fatal(err)
	}

	type saved struct {
		a, b string
		w    time.Duration
	}
	var orig []saved
	for _, e := range g.EdgeNames() {
		orig = append(orig, saved{e[0], e[1], g.EdgeCost(e[0], e[1])})
	}

	a := NewCutArena()
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 5; round++ {
		for _, s := range orig {
			g.SetEdgeCost(s.a, s.b, scale(s.w, 0.5+rng.Float64()))
		}
		if _, err := g.MinCutArena(ctx, a); err != nil {
			t.Fatalf("round %d perturbed cut: %v", round, err)
		}
		for _, s := range orig {
			g.SetEdgeCost(s.a, s.b, s.w)
		}
		cut, err := g.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("round %d restored cut: %v", round, err)
		}
		got, err := json.Marshal(cut.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("round %d: restored arena cut JSON differs from one-shot", round)
		}
	}
	if st := a.Stats(); st.Restaged != 1 {
		t.Fatalf("stats %+v: weight-only rounds must not restage", st)
	}
}

// TestArenaRestagesOnTopologyChange: edge additions, removals, new
// nodes, and pin changes invalidate the staged layout; the arena must
// detect each, restage, and still agree with the one-shot path.
func TestArenaRestagesOnTopologyChange(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	g := constrainedRandomGraph(11)
	a := NewCutArena()

	check := func(step string, wantRestaged int) {
		t.Helper()
		got, err := g.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("%s: arena cut: %v", step, err)
		}
		want, err := g.MinCut()
		if err != nil {
			t.Fatalf("%s: one-shot: %v", step, err)
		}
		if !slices.Equal(got.Assignment, want.Assignment) || got.Cost != want.Cost {
			t.Fatalf("%s: arena cut differs from one-shot", step)
		}
		if st := a.Stats(); st.Restaged != wantRestaged {
			t.Fatalf("%s: stats %+v: want %d restages", step, st, wantRestaged)
		}
	}

	check("initial", 1)
	g.AddEdge("n0", "extra-node", 2500)
	check("edge+node added", 2)
	check("unchanged after add", 2)
	g.SetEdgeCost("n0", "extra-node", 0) // deletes the edge
	check("edge removed", 3)
	g.Pin("extra-node", SinkSide)
	check("pin added", 4)
}

// TestArenaRecoversAfterCancel: a cancelled cut leaves mid-run solver
// state behind; the next cut on the same arena must not warm-start from
// it, and must return the fresh cut's sides and cost. A
// cancelled first cut, or a cancelled warm re-cut after a perturbation,
// leaves the aborted run's residuals on pairs whose capacity did not
// change since; the cold rewrite that follows must reset those too.
func TestArenaRecoversAfterCancel(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	synth := func() *Graph { return Synthesize(SynthConfig{Nodes: 3000, Seed: 3}) }
	cut := func(t *testing.T, g *Graph, a *CutArena) {
		if _, err := g.MinCutArena(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		graph  func() *Graph
		before func(*testing.T, *Graph, *CutArena) // runs ahead of the cancelled cut
	}{
		{"first cut", synth, func(*testing.T, *Graph, *CutArena) {}},
		{"first cut, pinned terminals", cancelTestGraph, func(*testing.T, *Graph, *CutArena) {}},
		{"unchanged re-cut", synth, cut},
		{"re-cut after perturbation", synth, func(t *testing.T, g *Graph, a *CutArena) {
			cut(t, g, a)
			names := g.EdgeNames()
			repriceOnePercent(g, rand.New(rand.NewSource(3)), names, edgeCosts(g, names))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g, a := tc.graph(), NewCutArena()
			tc.before(t, g, a)
			if _, err := g.MinCutArena(cancelled, a); !errors.Is(err, context.Canceled) {
				t.Fatalf("cut under a cancelled context: err = %v, want context.Canceled", err)
			}
			got, err := g.MinCutArena(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			checkResidualPairs(t, g, a)
			want, err := g.MinCut()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Assignment, want.Assignment) || got.Cost != want.Cost {
				t.Fatalf("arena cut after cancellation costs %v, a fresh cut %v; sides equal: %v",
					got.Cost, want.Cost, slices.Equal(got.Assignment, want.Assignment))
			}
		})
	}
}

// TestArenaFallbackMatchesCold re-prices 1 % of the edges per round
// through one arena until a warm start blows its repair budget and falls
// back to a cold solve, which starts from residuals reset to the new
// capacities. That cut must be a fresh cold cut's, sides and cost, and
// leave the residuals holding the store.
func TestArenaFallbackMatchesCold(t *testing.T) {
	t.Parallel()
	const rounds = 400
	ctx := context.Background()
	g := Synthesize(SynthConfig{Nodes: 5000, Seed: 1})
	names := g.EdgeNames()
	base := edgeCosts(g, names)
	rng := rand.New(rand.NewSource(1))
	a := NewCutArena()
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		repriceOnePercent(g, rng, names, base)
		got, err := g.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if a.Stats().Fallbacks == 0 {
			continue
		}
		want, err := g.MinCut()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Assignment, want.Assignment) || got.Cost != want.Cost {
			t.Fatalf("round %d: fallback cut costs %v, a fresh cut %v; sides equal: %v",
				round, got.Cost, want.Cost, slices.Equal(got.Assignment, want.Assignment))
		}
		checkResidualPairs(t, g, a)
		t.Logf("fell back in round %d", round)
		return
	}
	t.Fatalf("no warm start fell back in %d rounds: %+v", rounds, a.Stats())
}

// TestReusedCutMatchesCold: a re-cut of an unchanged network runs no
// solver, and what it returns is the cut a cold solve would: the same
// sides and cost. Under a cancelled context it returns the
// context's error and leaves the last solve in place for the next re-cut.
func TestReusedCutMatchesCold(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	g := Synthesize(SynthConfig{Nodes: 3000, Seed: 4})
	a := NewCutArena()
	same := func(step string, got, want *Cut) {
		t.Helper()
		if !slices.Equal(got.Assignment, want.Assignment) || got.Cost != want.Cost {
			t.Fatalf("%s: reused cut costs %v, want %v", step, got.Cost, want.Cost)
		}
	}
	reused := func(step string, want int) *Cut {
		t.Helper()
		c, err := g.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if st := a.Stats(); st.Reused != want {
			t.Fatalf("%s: stats %+v, want %d reused cuts", step, st, want)
		}
		return c
	}
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	cold, err := g.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	same("after a cold cut", reused("after a cold cut", 1), cold)

	names := g.EdgeNames()
	repriceOnePercent(g, rand.New(rand.NewSource(4)), names, edgeCosts(g, names))
	warm, err := g.MinCutArena(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	after := reused("after a warm cut", 2)
	same("after a warm cut", after, warm)
	if cold, err = g.MinCut(); err != nil {
		t.Fatal(err)
	}
	same("a cold cut of the warm-cut graph", after, cold)

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := g.MinCutArena(cancelled, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("reused cut under a cancelled context: err = %v, want context.Canceled", err)
	}
	same("after a cancelled re-cut", reused("after a cancelled re-cut", 3), warm)
}

// renamed returns a copy of g with every node renamed prefix+name, in the
// same node order: equal topology, different names.
func renamed(g *Graph, prefix string) *Graph {
	c := g.clone()
	clear(c.index)
	for i, n := range c.names {
		c.names[i] = prefix + n
		c.index[c.names[i]] = i
	}
	return c
}

// TestReusedCutNamesItsOwnGraph: the arena matches graphs by content, not
// by name, so a rebuilt graph of equal topology and weights is served
// from the last solve; its cut must still name the rebuilt graph's nodes.
func TestReusedCutNamesItsOwnGraph(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	g := Synthesize(SynthConfig{Nodes: 2000, Seed: 6})
	a := NewCutArena()
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	r := renamed(g, "r-")
	got, err := r.MinCutArena(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Reused != 1 || st.Restaged != 1 {
		t.Fatalf("stats %+v: want the renamed graph's cut reused from the first", st)
	}
	want, err := r.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	gotSink, wantSink := got.NodesOn(SinkSide), want.NodesOn(SinkSide)
	if !slices.Equal(gotSink, wantSink) || got.Cost != want.Cost {
		t.Fatal("reused cut of the renamed graph differs from its own cold cut")
	}
	for _, n := range gotSink {
		if !strings.HasPrefix(n, "r-") {
			t.Fatalf("reused cut names %q, a node of the first graph", n)
		}
	}
}

// TestBrokenPinIsAnError: a cut that puts a pinned node on the other side
// comes from a corrupted network, and both extractors return an error
// naming the node instead of the cut.
func TestBrokenPinIsAnError(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	wantErr := func(step string, c *Cut, err error) {
		t.Helper()
		if err == nil || c != nil || !strings.Contains(err.Error(), `"s"`) {
			t.Fatalf("%s: got cut %v, err %v; want an error naming node \"s\"", step, c != nil, err)
		}
	}

	// Zero the pin arc from the source into node s before a cold solve:
	// s then reaches t through its edges and lands on the sink side.
	g := cancelTestGraph()
	g.settle()
	a := NewCutArena()
	inf, err := g.infinityProxy()
	if err != nil {
		t.Fatal(err)
	}
	a.restage(g, inf)
	s := int32(g.index["s"])
	for arc := a.net.head[a.net.s]; arc < a.net.head[a.net.s+1]; arc++ {
		if a.net.to[arc] == s {
			a.net.cap[arc], a.net.cap[a.net.rev[arc]] = 0, 0
		}
	}
	if a.flow, err = a.net.maxFlowHL(ctx, &a.st, false); err != nil {
		t.Fatal(err)
	}
	a.net.distToSink(&a.st)
	c, err := a.extractCut(g)
	wantErr("arena extractor", c, err)

	// A corrupted last solve read back by an unchanged re-cut.
	a = NewCutArena()
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	a.st.dist[s] = 1
	c, err = g.MinCutArena(ctx, a)
	wantErr("reused cut", c, err)

	// The oracle's extractor handed a reachability that strands s.
	c, err = g.extractCutSides(make([]bool, g.Len()+2), 0)
	wantErr("oracle extractor", c, err)
}

// TestRecutAllocs holds an arena re-cut to its answer: on a held arena, a
// warm re-cut after re-pricing 1 % of the edges and a re-cut of the
// unchanged graph each allocate the Cut and its side vector, nothing
// else. Not parallel: AllocsPerRun counts every goroutine's allocations.
//
//lint:allow paralleltest AllocsPerRun is process-wide
func TestRecutAllocs(t *testing.T) {
	ctx := context.Background()
	g := Synthesize(SynthConfig{Nodes: 5000, Seed: 1})
	names := g.EdgeNames()
	base := edgeCosts(g, names)
	rng := rand.New(rand.NewSource(1))
	a := NewCutArena()
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	var err error
	warm := testing.AllocsPerRun(20, func() {
		repriceOnePercent(g, rng, names, base)
		if _, e := g.MinCutArena(ctx, a); e != nil {
			err = e
		}
	})
	before := a.Stats()
	unchanged := testing.AllocsPerRun(20, func() {
		if _, e := g.MinCutArena(ctx, a); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Reused != before.Reused+21 || st.Restaged != 1 {
		t.Fatalf("stats %+v -> %+v: want every unchanged re-cut reused on one staging", before, st)
	}
	if warm > 2 || unchanged > 2 {
		t.Fatalf("re-cut after re-pricing allocated %v objects, unchanged re-cut %v; want <= 2 each", warm, unchanged)
	}
}
