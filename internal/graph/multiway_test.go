package graph

import (
	"fmt"
	"testing"
)

// TestMultiwayCutSynthDeterministic runs the (now parallel) isolation
// heuristic over seeded synthetic instances and checks that repeated runs
// agree exactly — the per-terminal cuts fan out on a worker pool, and the
// result must not depend on scheduling. Under `go test -race` this also
// exercises the concurrent reads of the shared graph.
// TestMultiwayCutEqualWeightTieBreak pins the heaviest-cut tie-break
// contract: when several isolating cuts carry exactly equal weight, the
// discarded (default) terminal is chosen by terminal index, not by
// whatever order results happen to come back in. The star below makes
// all three isolating cuts weigh exactly 1, so every run across the
// parallel fan-out must produce the identical assignment (under
// `go test -race` this also catches scheduling-dependent reads).
func TestMultiwayCutEqualWeightTieBreak(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddEdge("hub", "a", 1)
	g.AddEdge("hub", "b", 1)
	g.AddEdge("hub", "c", 1)
	terminals := []MultiwayTerminal{
		{Machine: "m0", Pinned: []string{"a"}},
		{Machine: "m1", Pinned: []string{"b"}},
		{Machine: "m2", Pinned: []string{"c"}},
	}
	first, w1, err := g.MultiwayCut(terminals)
	if err != nil {
		t.Fatal(err)
	}
	// All three isolating cuts weigh 1; the tie-break discards the
	// highest terminal index, so m2 owns the hub and the total crossing
	// weight is the two edges leaving it.
	if first["hub"] != "m2" {
		t.Fatalf("hub on %s, want m2 (tie broken by terminal index)", first["hub"])
	}
	if w1 != 2 {
		t.Fatalf("weight %v, want 2", w1)
	}
	for run := 0; run < 100; run++ {
		assign, w, err := g.MultiwayCut(terminals)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if w != w1 || len(assign) != len(first) {
			t.Fatalf("run %d: weight/size changed: %v vs %v", run, w, w1)
		}
		for n, m := range first {
			if assign[n] != m {
				t.Fatalf("run %d: node %s assigned to %s, previously %s", run, n, assign[n], m)
			}
		}
	}
}

func TestMultiwayCutSynthDeterministic(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			// Pins are dropped by the per-terminal clones anyway; disable
			// co-locations so the heuristic's assignment is always legal.
			g := Synthesize(SynthConfig{
				Nodes: 300, AvgDegree: 6, Seed: seed,
				PinFraction: 1e-9, CoLocateFraction: 1e-9, FreeFraction: 1e-9,
			})
			terminals := []MultiwayTerminal{
				{Machine: "client", Pinned: []string{synthName(0)}},
				{Machine: "server", Pinned: []string{synthName(1)}},
				{Machine: "middle", Pinned: []string{synthName(2)}},
			}
			if seed%2 == 1 {
				terminals = append(terminals, MultiwayTerminal{Machine: "edge", Pinned: []string{synthName(3)}})
			}
			assign1, w1, err := g.MultiwayCut(terminals)
			if err != nil {
				t.Fatalf("MultiwayCut: %v", err)
			}
			assign2, w2, err := g.MultiwayCut(terminals)
			if err != nil {
				t.Fatalf("MultiwayCut (second run): %v", err)
			}
			if w1 != w2 {
				t.Fatalf("weights differ across runs: %v vs %v", w1, w2)
			}
			if len(assign1) != len(assign2) || len(assign1) != g.Len() {
				t.Fatalf("assignment sizes differ: %d, %d, want %d", len(assign1), len(assign2), g.Len())
			}
			for n, m := range assign1 {
				if assign2[n] != m {
					t.Fatalf("node %s assigned to %s then %s", n, m, assign2[n])
				}
			}
			for _, term := range terminals {
				for _, n := range term.Pinned {
					if assign1[n] != term.Machine {
						t.Fatalf("terminal node %s landed on %s, want %s", n, assign1[n], term.Machine)
					}
				}
			}
		})
	}
}
