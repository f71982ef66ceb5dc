package graph

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"
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

// TestColdCutBytesPerEdge holds a cold cut to one copy of the graph
// between the edge store and the solver: a fresh arena's cut of a settled
// 20k-node graph allocates at most 100 bytes per edge. Staging the arc
// pairs in a list of their own before the CSR layout cost 230. Not
// parallel: TotalAlloc counts every goroutine's allocations.
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
	if perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(edges); perEdge > 100 {
		t.Fatalf("cold cut allocated %.1f B/edge over %d edges, want <= 100", perEdge, edges)
	}
}

func assignmentsEqual(a, b map[string]Side) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestPropertyArenaWarmMatchesCold drives the warm-start path over the
// 150-seed constrained generator: cut through one arena, re-cut
// unchanged (a pure warm resume), then perturb a random subset of edge
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
		oneShot, err := g.MinCut()
		if err != nil {
			t.Fatalf("seed %d: one-shot: %v", seed, err)
		}
		if !assignmentsEqual(first.Assignment, oneShot.Assignment) || first.Weight != oneShot.Weight {
			t.Fatalf("seed %d: arena cold cut differs from one-shot", seed)
		}

		again, err := g.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("seed %d: unchanged re-cut: %v", seed, err)
		}
		if !assignmentsEqual(again.Assignment, first.Assignment) || again.Weight != first.Weight {
			t.Fatalf("seed %d: unchanged warm re-cut changed the cut", seed)
		}

		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for _, e := range g.EdgeNames() {
			if rng.Intn(2) == 0 {
				g.SetEdgeWeight(e[0], e[1], g.EdgeWeight(e[0], e[1])*(0.25+1.5*rng.Float64()))
			}
		}
		warm, err := g.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("seed %d: warm perturbed cut: %v", seed, err)
		}
		cold, err := g.MinCut()
		if err != nil {
			t.Fatalf("seed %d: cold perturbed cut: %v", seed, err)
		}
		ek, err := g.MinCutEdmondsKarp()
		if err != nil {
			t.Fatalf("seed %d: oracle on perturbed graph: %v", seed, err)
		}
		tol := 1e-6 * (1 + cold.Weight)
		if math.Abs(warm.Weight-cold.Weight) > tol || math.Abs(warm.Weight-ek.Weight) > tol {
			t.Fatalf("seed %d: weights diverge: warm=%v cold=%v ek=%v", seed, warm.Weight, cold.Weight, ek.Weight)
		}
		if !assignmentsEqual(warm.Assignment, cold.Assignment) {
			t.Fatalf("seed %d: warm and cold assignments differ", seed)
		}
		// Free-floating nodes reach no pin, so no warm or cold BFS from t
		// reaches them: they stay on the client.
		for _, cut := range []*Cut{again, warm} {
			for _, free := range []string{"float1", "float2", "lonely"} {
				if cut.Assignment[free] != SourceSide {
					t.Fatalf("seed %d: free node %s on %v after a warm re-cut", seed, free, cut.Assignment[free])
				}
			}
		}

		st := a.Stats()
		if st.Cuts != 3 || st.Restaged != 1 {
			t.Fatalf("seed %d: stats %+v: want 3 cuts, 1 restage", seed, st)
		}
		if st.Warm+st.Cold != st.Cuts {
			t.Fatalf("seed %d: stats %+v: warm+cold != cuts", seed, st)
		}
		if st.Warm < 1 {
			t.Fatalf("seed %d: stats %+v: unchanged re-cut should have been warm", seed, st)
		}
		totalWarm += st.Warm
		totalFallback += st.Fallbacks
	}
	// The suite as a whole must actually exercise warm resumes of changed
	// capacities, not fall back to cold on every perturbation.
	if totalWarm < 250 {
		t.Fatalf("only %d warm cuts across 150 seeds (fallbacks: %d); warm path not exercised", totalWarm, totalFallback)
	}
}

// TestArenaPerturbRestoreByteIdentical: N successive arena cuts with
// weights perturbed and then bit-exactly restored must reproduce the
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
		w    float64
	}
	var orig []saved
	for _, e := range g.EdgeNames() {
		orig = append(orig, saved{e[0], e[1], g.EdgeWeight(e[0], e[1])})
	}

	a := NewCutArena()
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 5; round++ {
		for _, s := range orig {
			g.SetEdgeWeight(s.a, s.b, s.w*(0.5+rng.Float64()))
		}
		if _, err := g.MinCutArena(ctx, a); err != nil {
			t.Fatalf("round %d perturbed cut: %v", round, err)
		}
		for _, s := range orig {
			g.SetEdgeWeight(s.a, s.b, s.w)
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
		if !assignmentsEqual(got.Assignment, want.Assignment) || got.Weight != want.Weight {
			t.Fatalf("%s: arena cut differs from one-shot", step)
		}
		if st := a.Stats(); st.Restaged != wantRestaged {
			t.Fatalf("%s: stats %+v: want %d restages", step, st, wantRestaged)
		}
	}

	check("initial", 1)
	g.AddEdge("n0", "extra-node", 2.5)
	check("edge+node added", 2)
	check("unchanged after add", 2)
	g.SetEdgeWeight("n0", "extra-node", 0) // deletes the edge
	check("edge removed", 3)
	g.Pin("extra-node", SinkSide)
	check("pin added", 4)
}

// TestArenaRecoversAfterCancel: a cancelled cut leaves mid-run solver
// state behind; the next cut on the same arena must not warm-start from
// it, and must still produce the correct cut.
func TestArenaRecoversAfterCancel(t *testing.T) {
	t.Parallel()
	g := Synthesize(SynthConfig{Nodes: 3000, Seed: 3})
	a := NewCutArena()
	if _, err := g.MinCutArena(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.MinCutArena(cancelled, a); err == nil {
		t.Fatal("cut under a cancelled context succeeded")
	}
	got, err := g.MinCutArena(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	if !assignmentsEqual(got.Assignment, want.Assignment) || got.Weight != want.Weight {
		t.Fatal("arena cut after cancellation differs from one-shot")
	}
}
