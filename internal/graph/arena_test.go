package graph

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// layoutPairs lays raw arc pairs out through the production layout,
// bypassing Graph (whose AddEdge/CoLocate filter self-edges before they
// can be staged).
func layoutPairs(n, s, t int, pairs []csrArc) *csrNet {
	a := &CutArena{n: n, s: s, t: t, pairs: pairs}
	a.layout()
	return &a.net
}

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

// TestCSRNetSelfLoopPairs is the regression test for the reverse-arc
// corruption the CSR layout used to suffer on self-loop pairs: both halves
// of a u==u pair read the same position slot before either incremented
// it, so both landed on one arc index and the adjacent slot was left
// zeroed with a dangling rev pointer. CutArena.layout drops self-loops;
// without that this test fails the involution check (and the flow value,
// since the corrupted row breaks the discharge scan).
func TestCSRNetSelfLoopPairs(t *testing.T) {
	t.Parallel()
	pairs := []csrArc{
		{u: 0, v: 1, capUV: 2, capVU: 2},
		{u: 1, v: 1, capUV: 5, capVU: 5}, // self-loop: must be dropped
		{u: 0, v: 0, capUV: 7, capVU: 0}, // directed self-loop too
	}
	net := layoutPairs(2, 0, 1, pairs)
	if len(net.to) != 2 {
		t.Fatalf("self-loops staged: %d arcs, want 2", len(net.to))
	}
	checkCSRInvariants(t, net)

	// Dropping self-loops at layout means the network is byte-identical
	// to one laid out without them.
	clean := layoutPairs(2, 0, 1, pairs[:1])
	if len(clean.to) != len(net.to) {
		t.Fatalf("filtered and clean networks differ in size: %d vs %d", len(net.to), len(clean.to))
	}
	for a := range net.to {
		if net.to[a] != clean.to[a] || net.rev[a] != clean.rev[a] {
			t.Fatalf("arc %d differs between filtered and clean layout", a)
		}
	}

	flow, err := net.maxFlowHL(context.Background(), &hiprState{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flow-2) > 1e-12 {
		t.Fatalf("flow %v, want 2 (self-loop capacity must not count)", flow)
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
