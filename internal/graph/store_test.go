package graph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// scale returns d times f rounded to the nearest nanosecond, and at least
// 1 ns, so that re-pricing a weight never deletes its edge.
func scale(d time.Duration, f float64) time.Duration {
	return max(1, time.Duration(math.Round(float64(d)*f)))
}

// secs converts seconds to the nearest nanosecond, for tests that draw
// weights as floats.
func secs(x float64) time.Duration { return time.Duration(math.Round(x * 1e9)) }

// edgeCosts returns the weights of the named edges.
func edgeCosts(g *Graph, names [][2]string) []time.Duration {
	base := make([]time.Duration, len(names))
	for i, n := range names {
		base[i] = g.EdgeCost(n[0], n[1])
	}
	return base
}

// TestNonPositiveWeightsAtTheDoor: a non-positive weight never enters the
// store. AddEdge ignores it and SetEdgeCost deletes the edge; the seconds
// bridge rounds to the nearest nanosecond, keeps a positive weight at
// 1 ns or more, and deletes on anything else, NaN included.
func TestNonPositiveWeightsAtTheDoor(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		entry   func(g *Graph)
		want    time.Duration // EdgeCost(a, b) afterwards, from 2 ns
		total   time.Duration
		cutCost time.Duration
	}{
		{"AddEdge zero", func(g *Graph) { g.AddEdge("a", "b", 0) }, 2, 3, 1},
		{"AddEdge negative", func(g *Graph) { g.AddEdge("a", "b", -1) }, 2, 3, 1},
		{"SetEdgeCost zero", func(g *Graph) { g.SetEdgeCost("a", "b", 0) }, 0, 1, 0},
		{"SetEdgeCost negative", func(g *Graph) { g.SetEdgeCost("a", "b", -5) }, 0, 1, 0},
		{"SetEdgeWeight rounds", func(g *Graph) { g.SetEdgeWeight("a", "b", 3.4e-9) }, 3, 4, 1},
		{"SetEdgeWeight tiny", func(g *Graph) { g.SetEdgeWeight("a", "b", 1e-15) }, 1, 2, 1},
		{"SetEdgeWeight NaN", func(g *Graph) { g.SetEdgeWeight("a", "b", math.NaN()) }, 0, 1, 0},
		{"SetEdgeWeight zero", func(g *Graph) { g.SetEdgeWeight("a", "b", 0) }, 0, 1, 0},
	} {
		g := New()
		g.AddEdge("a", "b", 2)
		g.AddEdge("b", "c", 1)
		tc.entry(g)
		if got := g.EdgeCost("a", "b"); got != tc.want {
			t.Errorf("%s: weight %v, want %v", tc.name, got, tc.want)
		}
		if got, err := g.TotalWeight(); err != nil || got != tc.total {
			t.Errorf("%s: total %v (err %v), want %v", tc.name, got, err, tc.total)
		}
		g.Pin("a", SourceSide)
		g.Pin("c", SinkSide)
		cut, err := g.MinCut()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cut.Cost != tc.cutCost {
			t.Errorf("%s: cut cost %v, want %v", tc.name, cut.Cost, tc.cutCost)
		}
	}
}

// TestOverflowIsLoud: a total weight past MaxTotalWeight, or pin and weld
// proxies that together with the edges pass the int64 range, fail the cut
// with ErrOverflow on every path instead of wrapping. Weights come from
// outside (coign analyze -logs reads .icc files).
func TestOverflowIsLoud(t *testing.T) {
	t.Parallel()
	const big = time.Duration(math.MaxInt64/8 + 1)
	g := New()
	g.AddEdge("a", "b", big)
	g.AddEdge("b", "c", big)
	g.Pin("a", SourceSide)
	g.Pin("c", SinkSide)
	if _, err := g.TotalWeight(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("TotalWeight: err = %v, want ErrOverflow", err)
	}
	cut := func(step string, g *Graph) {
		t.Helper()
		for name, f := range map[string]func() (*Cut, error){
			"MinCut":            g.MinCut,
			"MinCutEdmondsKarp": g.MinCutEdmondsKarp,
		} {
			if c, err := f(); !errors.Is(err, ErrOverflow) || c != nil {
				t.Fatalf("%s, %s: cut %v, err %v; want ErrOverflow", step, name, c != nil, err)
			}
		}
	}
	cut("two edges of MaxInt64/8+1", g)
	terminals := []MultiwayTerminal{{Machine: "x", Pinned: []string{"a"}}, {Machine: "y", Pinned: []string{"c"}}}
	if _, _, err := g.MultiwayCut(terminals); !errors.Is(err, ErrOverflow) {
		t.Fatalf("MultiwayCut: err = %v, want ErrOverflow", err)
	}

	// A total of MaxTotalWeight is within bounds, and so is one pin's
	// proxy ...
	g = New()
	g.AddEdge("a", "b", MaxTotalWeight)
	g.Pin("a", SourceSide)
	if _, err := g.MinCut(); err != nil {
		t.Fatalf("a total of MaxTotalWeight and one pin: %v", err)
	}
	// ... but a second pin's proxy would carry the network past int64.
	g.Pin("b", SinkSide)
	cut("MaxTotalWeight and two pins", g)

	// A weight in seconds past the int64 range saturates instead of
	// converting to a wrapped (or tiny) ns count.
	for _, w := range []float64{1e10, math.Inf(1)} {
		g = New()
		g.SetEdgeWeight("a", "b", w)
		g.Pin("a", SourceSide)
		g.Pin("b", SinkSide)
		if got := g.EdgeCost("a", "b"); got != math.MaxInt64 {
			t.Fatalf("SetEdgeWeight(%g s) weighs %v, want math.MaxInt64", w, got)
		}
		cut(fmt.Sprintf("SetEdgeWeight(%g s)", w), g)
	}

	// A pair whose accumulated weight wraps saturates instead.
	g = New()
	g.AddEdge("a", "b", math.MaxInt64)
	g.AddEdge("b", "a", math.MaxInt64)
	if w := g.EdgeCost("a", "b"); w != math.MaxInt64 {
		t.Fatalf("wrapped pair weighs %v, want math.MaxInt64", w)
	}
	if _, err := g.TotalWeight(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("TotalWeight of a wrapped pair: err = %v, want ErrOverflow", err)
	}
}

// TestStoreSumsBitIdentical: the infinity proxy, the total weight and the
// multiway weight are pure functions of the graph — not of a map's
// iteration order or of how many times they are taken.
func TestStoreSumsBitIdentical(t *testing.T) {
	t.Parallel()
	g := Synthesize(SynthConfig{Nodes: 5000, Seed: 1})
	// Substituted pins may legally split the generator's welds; the
	// heuristic's weight is what is under test, so cut the relaxed graph.
	relaxed := g.WithoutCoLocations()
	terminals := []MultiwayTerminal{
		{Machine: "client", Pinned: []string{synthName(0)}},
		{Machine: "server", Pinned: []string{synthName(1)}},
		{Machine: "middle", Pinned: []string{synthName(2)}},
	}
	proxy, perr := g.infinityProxy(g.pin)
	total, terr := g.TotalWeight()
	_, multi, err := relaxed.MultiwayCut(terminals)
	if err = errors.Join(perr, terr, err); err != nil {
		t.Fatal(err)
	}
	if proxy != 2*total+1 {
		t.Fatalf("infinity proxy %v, want 2·%v+1", proxy, total)
	}
	for i := 0; i < 50; i++ {
		if p, _ := g.infinityProxy(g.pin); p != proxy {
			t.Fatalf("call %d: infinity proxy %v, first call %v", i, p, proxy)
		}
		if w, _ := g.TotalWeight(); w != total {
			t.Fatalf("call %d: total weight %v, first call %v", i, w, total)
		}
		if _, w, err := relaxed.MultiwayCut(terminals); err != nil || w != multi {
			t.Fatalf("call %d: multiway weight %v (err %v), first call %v", i, w, err, multi)
		}
	}
}

// repriceOnePercent re-prices about 1 % of the edges to between half and
// one and a half times their generator weight.
func repriceOnePercent(g *Graph, rng *rand.Rand, names [][2]string, base []time.Duration) {
	for k := 0; k < max(1, len(names)/100); k++ {
		i := rng.Intn(len(names))
		g.SetEdgeCost(names[i][0], names[i][1], scale(base[i], 0.5+rng.Float64()))
	}
}

// TestUnchangedRecutNeverFallsBack: a re-cut of an unchanged graph is
// served from the last solve, always, and never falls back: an unchanged
// graph has the same infinity proxy, so no weld or pin arc is re-priced.
func TestUnchangedRecutNeverFallsBack(t *testing.T) {
	t.Parallel()
	for _, nodes := range []int{5000, 10000} {
		t.Run(fmt.Sprint(nodes), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			g := Synthesize(SynthConfig{Nodes: nodes, Seed: 1})
			names := g.EdgeNames()
			base := edgeCosts(g, names)
			rng := rand.New(rand.NewSource(1))
			a := NewCutArena()
			if _, err := g.MinCutArena(ctx, a); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 300; round++ {
				repriceOnePercent(g, rng, names, base)
				perturbed, err := g.MinCutArena(ctx, a)
				if err != nil {
					t.Fatal(err)
				}
				before := a.Stats()
				unchanged, err := g.MinCutArena(ctx, a)
				if err != nil {
					t.Fatal(err)
				}
				after := a.Stats()
				if after.Fallbacks != before.Fallbacks || after.Reused != before.Reused+1 ||
					after.Warm+after.Cold+after.Reused != after.Cuts {
					t.Fatalf("round %d: unchanged re-cut went %+v -> %+v, want one more reused cut and no fallback", round, before, after)
				}
				if unchanged.Cost != perturbed.Cost {
					t.Fatalf("round %d: unchanged re-cut weighs %v, the cut before it %v", round, unchanged.Cost, perturbed.Cost)
				}
			}
			if st := a.Stats(); st.Restaged != 1 {
				t.Fatalf("stats %+v: weight-only rounds must not restage", st)
			}
		})
	}
}

// TestArenaMatchesByContent: one arena cutting two distinct Graph values
// of equal topology — what experiments.Adaptive and experiments.Report
// do, each handed a fresh graph from analysis.Analyze per call — rewrites
// capacities for the second instead of restaging.
func TestArenaMatchesByContent(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	cfg := SynthConfig{Nodes: 2000, Seed: 5}
	first, second := Synthesize(cfg), Synthesize(cfg)
	names := second.EdgeNames()
	repriceOnePercent(second, rand.New(rand.NewSource(5)), names, edgeCosts(second, names))

	a := NewCutArena()
	if _, err := first.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	got, err := second.MinCutArena(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := second.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Assignment, want.Assignment) || got.Cost != want.Cost {
		t.Fatal("cut of the second graph through the first graph's arena differs from its one-shot cut")
	}
	if st := a.Stats(); st.Restaged != 1 || st.Warm+st.Fallbacks != 1 {
		t.Fatalf("stats %+v: want 1 restage and the second cut a warm start (or its fallback)", st)
	}
}

// TestStoreOrderAndAccumulation: repeated AddEdge on one pair, however
// interleaved with other pairs, sums exactly;
// EdgeNames is in (lo, hi) index order after inserts, deletes and
// re-inserts; and a delete forces an arena to restage.
func TestStoreOrderAndAccumulation(t *testing.T) {
	t.Parallel()
	g := New()
	for _, n := range []string{"n0", "n1", "n2", "n3", "n4"} {
		g.Node(n)
	}
	// A float64 sum of these would depend on the order it is taken in.
	ws := []time.Duration{100, 1e16, 300, 1, 3, 7}
	var want time.Duration
	for i, w := range ws {
		if i%2 == 0 {
			g.AddEdge("n3", "n1", w)
		} else {
			g.AddEdge("n1", "n3", w)
		}
		g.AddEdge("n4", "n0", 1) // other pairs in between, out of order
		g.AddEdge("n2", "n3", 2)
		if i == 2 {
			g.Edges() // settle mid-sequence: the prefix sum must carry over
		}
		want += w
	}
	if got := g.EdgeCost("n1", "n3"); got != want {
		t.Fatalf("accumulated weight %v, want the sum %v", got, want)
	}

	inOrder := func(step string, want ...[2]string) {
		t.Helper()
		if got := g.EdgeNames(); !slices.Equal(got, want) {
			t.Fatalf("%s: edges %v, want %v", step, got, want)
		}
	}
	inOrder("inserts", [2]string{"n0", "n4"}, [2]string{"n1", "n3"}, [2]string{"n2", "n3"})
	g.SetEdgeCost("n2", "n0", 5) // insert through SetEdgeCost
	g.AddEdge("n1", "n0", 3)
	inOrder("more inserts", [2]string{"n0", "n1"}, [2]string{"n0", "n2"}, [2]string{"n0", "n4"}, [2]string{"n1", "n3"}, [2]string{"n2", "n3"})

	g.Pin("n0", SourceSide)
	g.Pin("n3", SinkSide)
	ctx := context.Background()
	a := NewCutArena()
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	g.SetEdgeCost("n0", "n2", 6) // existing pair: order undisturbed, no restage
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Restaged != 1 {
		t.Fatalf("stats %+v: a re-priced edge must not restage", st)
	}
	g.SetEdgeCost("n0", "n2", 0) // delete
	inOrder("delete", [2]string{"n0", "n1"}, [2]string{"n0", "n4"}, [2]string{"n1", "n3"}, [2]string{"n2", "n3"})
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Restaged != 2 {
		t.Fatalf("stats %+v: a deleted edge must restage", st)
	}
	g.AddEdge("n2", "n0", 4) // re-insert
	inOrder("re-insert", [2]string{"n0", "n1"}, [2]string{"n0", "n2"}, [2]string{"n0", "n4"}, [2]string{"n1", "n3"}, [2]string{"n2", "n3"})
	if got := g.EdgeCost("n0", "n2"); got != 4 {
		t.Fatalf("re-inserted edge weighs %v, want 4 (the deleted weight must not come back)", got)
	}
}
