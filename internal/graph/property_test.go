package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomPinnedGraph builds a random instance with both terminals pinned.
func randomPinnedGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	g.Pin("s", SourceSide)
	g.Pin("t", SinkSide)
	for i := 0; i < n; i++ {
		a := string(rune('a' + rng.Intn(8)))
		b := string(rune('a' + rng.Intn(8)))
		g.AddEdge(a, b, secs(1+rng.Float64()*4))
		if rng.Intn(3) == 0 {
			g.AddEdge("s", a, secs(1+rng.Float64()*4))
		}
		if rng.Intn(3) == 0 {
			g.AddEdge(b, "t", secs(1+rng.Float64()*4))
		}
	}
	return g
}

// TestPropertyCutWeightEqualsFlow: a cut's cost is the max flow, exactly:
// the Edmonds–Karp oracle's flow, and the price of its own assignment.
func TestPropertyCutWeightEqualsFlow(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		g := randomPinnedGraph(seed, 12)
		cut, err := g.MinCut()
		if err != nil {
			return false
		}
		ek, err := g.MinCutEdmondsKarp()
		if err != nil {
			return false
		}
		w, viol := g.EvaluateAssignmentDetail(byName(cut))
		return cut.Cost == ek.Cost && cut.Cost == w && viol == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMinCutMonotoneUnderEdgeAddition(t *testing.T) {
	t.Parallel()
	// Adding capacity can never decrease the minimum cut.
	f := func(seed int64, wRaw uint8) bool {
		g := randomPinnedGraph(seed, 10)
		before, err := g.MinCut()
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x55))
		a := string(rune('a' + rng.Intn(8)))
		g.AddEdge("s", a, secs(float64(wRaw%16)+0.5))
		after, err := g.MinCut()
		if err != nil {
			return false
		}
		return after.Cost >= before.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCutPartitionsEveryNode(t *testing.T) {
	t.Parallel()
	// Every node lands on exactly one side and pinned nodes honor pins.
	f := func(seed int64) bool {
		g := randomPinnedGraph(seed, 14)
		cut, err := g.MinCut()
		if err != nil {
			return false
		}
		if len(cut.Assignment) != g.Len() {
			return false
		}
		return sideOf(cut, "s") == SourceSide && sideOf(cut, "t") == SinkSide
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCoLocationAlwaysHonored(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		g := randomPinnedGraph(seed, 10)
		// Co-locate two random free nodes.
		rng := rand.New(rand.NewSource(seed ^ 0x99))
		a := string(rune('a' + rng.Intn(8)))
		b := string(rune('a' + rng.Intn(8)))
		g.CoLocate(a, b)
		cut, err := g.MinCut()
		if err != nil {
			return false
		}
		return sideOf(cut, a) == sideOf(cut, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
