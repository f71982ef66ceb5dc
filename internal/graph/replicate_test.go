package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestReplicateNeverCostlier sweeps seeded synthetic workloads and checks
// the two properties Replicate's callers rely on: cloning any eligible
// node set never increases the minimum cut (the replicated network has a
// subset of the edges), and the production cut on the replicated network
// still matches the Edmonds–Karp oracle exactly.
func TestReplicateNeverCostlier(t *testing.T) {
	t.Parallel()
	const seeds = 150
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			g := Synthesize(SynthConfig{
				Nodes:            40 + rng.Intn(160),
				AvgDegree:        2 + rng.Intn(5),
				PinFraction:      0.05 + 0.1*rng.Float64(),
				CoLocateFraction: 0.05 * rng.Float64(),
				Seed:             seed,
			})
			plain, err := g.MinCut()
			if err != nil {
				t.Fatal(err)
			}

			// A random slice of the node names, pinned and welded ones
			// included — Replicate must skip those itself.
			names := g.NodeNames()
			rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
			eligible := names[:1+rng.Intn(len(names))]

			rg, replicated := g.Replicate(eligible)
			for _, name := range replicated {
				if _, pinned := g.Pinned(name); pinned {
					t.Fatalf("replicated pinned node %s", name)
				}
			}
			rcut, err := rg.MinCut()
			if err != nil {
				t.Fatal(err)
			}
			if rcut.Cost > plain.Cost {
				t.Fatalf("replicated cut %v exceeds plain %v (replicated %d of %d eligible)",
					rcut.Cost, plain.Cost, len(replicated), len(eligible))
			}

			oracle, err := rg.MinCutEdmondsKarp()
			if err != nil {
				t.Fatal(err)
			}
			if oracle.Cost != rcut.Cost {
				t.Fatalf("replicated network: production cut %v != oracle %v", rcut.Cost, oracle.Cost)
			}
		})
	}
}

// TestReplicateSkipsPinnedAndWelded pins and welds specific nodes and
// checks Replicate refuses to clone them while still cloning a free one.
func TestReplicateSkipsPinnedAndWelded(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddEdge("gui", "cache", 1)
	g.AddEdge("cache", "store", 2)
	g.AddEdge("cache", "pair", 3)
	g.Pin("gui", SourceSide)
	g.Pin("store", SinkSide)
	g.CoLocate("pair", "store")

	rg, replicated := g.Replicate([]string{"gui", "store", "pair", "cache", "ghost"})
	if len(replicated) != 1 || replicated[0] != "cache" {
		t.Fatalf("replicated = %v, want [cache]", replicated)
	}
	if rg.Edges() != 0 {
		t.Fatalf("cloning cache should drop all its edges, %d left", rg.Edges())
	}
	if rg.Len() != g.Len() {
		t.Fatalf("node set changed: %d != %d", rg.Len(), g.Len())
	}
	rcut, err := rg.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	if rcut.Cost != 0 {
		t.Fatalf("replicated cut weight = %v, want 0", rcut.Cost)
	}
}
