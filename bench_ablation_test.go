package coign

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// graph-cutting algorithm (push-relabel vs BFS augmenting paths), the
// exponential message-size bucketing (vs exact byte accounting), the
// sampled network profile (vs oracle means), and the multiway-cut
// extension.

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// BenchmarkAblationMinCutPushRelabel times the production cut
// (highest-label push-relabel) on synthetic ICC graphs, the power-law
// generator coign bench-cut sweeps.
func BenchmarkAblationMinCutPushRelabel(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := graph.Synthesize(graph.SynthConfig{Nodes: n, Seed: 7})
				b.StartTimer()
				if _, err := g.MinCut(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMinCutEdmondsKarp times the BFS augmenting-path
// baseline on the same instances.
func BenchmarkAblationMinCutEdmondsKarp(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := graph.Synthesize(graph.SynthConfig{Nodes: n, Seed: 7})
				b.StartTimer()
				if _, err := g.MinCutEdmondsKarp(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMinCutOnRealGraph cross-checks both algorithms on a
// real scenario's concrete graph and reports their wall times.
func BenchmarkAblationMinCutOnRealGraph(b *testing.B) {
	var cmp *experiments.MinCutComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = experiments.CompareMinCut("o_oldbth")
		if err != nil {
			b.Fatal(err)
		}
		if cmp.WeightPR != cmp.WeightEK {
			b.Fatalf("algorithms disagree: %v vs %v", cmp.WeightPR, cmp.WeightEK)
		}
	}
	printOnce("ablation-mincut", func() {
		fmt.Fprintf(os.Stderr, "\nMin-cut ablation (%s, %d nodes, %d edges): push-relabel %v, edmonds-karp %v\n",
			cmp.Scenario, cmp.Nodes, cmp.Edges, cmp.PushRelabel, cmp.EdmondsKarp)
	})
	b.ReportMetric(float64(cmp.Nodes), "nodes")
}

// BenchmarkAblationBucketing compares exponential-bucket pricing against
// exact byte accounting (storage-for-accuracy trade of paper §3.3).
func BenchmarkAblationBucketing(b *testing.B) {
	var cmp *experiments.BucketingComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = experiments.CompareBucketing("o_oldwp7")
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("ablation-bucketing", func() {
		fmt.Fprintf(os.Stderr, "\nBucketing ablation (%s): bucketed=%v exact=%v error=%.1f%% same-placement=%v\n",
			cmp.Scenario, cmp.BucketedComm, cmp.ExactComm, cmp.RelativeError*100, cmp.SamePlacement)
	})
	b.ReportMetric(cmp.RelativeError*100, "pricing-error-%")
}

// BenchmarkAblationNetworkProfile compares the statistically sampled
// network profile against oracle model means.
func BenchmarkAblationNetworkProfile(b *testing.B) {
	var cmp *experiments.NetProfileComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = experiments.CompareNetworkProfile("o_oldtb3", 25)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("ablation-netprofile", func() {
		fmt.Fprintf(os.Stderr, "\nNetwork-profile ablation (%s): sampled=%v oracle=%v error=%.2f%% same-placement=%v\n",
			cmp.Scenario, cmp.SampledComm, cmp.OracleComm, cmp.RelativeError*100, cmp.SamePlacement)
	})
	b.ReportMetric(cmp.RelativeError*100, "sampling-error-%")
}

// BenchmarkAblationMultiwayCut times the isolation-heuristic multiway cut
// (the paper's future-work extension) on synthetic graphs, three of whose
// nodes are the terminals. The graphs carry no welds: the heuristic's
// combined assignment may split one, which is an error.
func BenchmarkAblationMultiwayCut(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := graph.Synthesize(graph.SynthConfig{Nodes: n, Seed: 11, CoLocateFraction: 1e-9})
				b.StartTimer()
				_, _, err := g.MultiwayCut([]graph.MultiwayTerminal{
					{Machine: "client", Pinned: []string{g.Name(0)}},
					{Machine: "middle", Pinned: []string{g.Name(1)}},
					{Machine: "server", Pinned: []string{g.Name(2)}},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCaching measures per-interface caching (semi-custom
// marshaling) on the Coign distribution of the 208-page text document:
// property queries repeat across paragraphs, so the proxy-side cache
// answers most of them locally.
func BenchmarkAblationCaching(b *testing.B) {
	var cmp *experiments.CachingComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = experiments.CompareCaching("o_oldwp7")
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("ablation-caching", func() {
		fmt.Fprintf(os.Stderr, "\nCaching ablation (%s): plain=%v cached=%v hits=%d savings=%.0f%%\n",
			cmp.Scenario, cmp.Plain, cmp.Cached, cmp.CacheHits, cmp.Savings*100)
	})
	b.ReportMetric(float64(cmp.CacheHits), "cache-hits")
	b.ReportMetric(cmp.Savings*100, "extra-savings-%")
}

// BenchmarkAblationThreeTier times the full three-machine experiment: the
// multiway isolation-heuristic cut plus the executed distribution.
func BenchmarkAblationThreeTier(b *testing.B) {
	var res *experiments.ThreeTierResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.ThreeTier(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("ablation-threetier", func() {
		fmt.Fprintf(os.Stderr, "\nThree-tier: per-machine=%v comm=%v (two-way %v)\n",
			res.PerMachine, res.Comm, res.TwoWayComm)
	})
}

// BenchmarkAblationEveryMap replays one scenario's event trace under every
// distribution its constraints allow (65,536 maps on o_oldwp7) and reports
// how far the product-priced and exact-priced cuts land from the replay
// optimum (paper §3.3's trace-driven simulation put to work).
func BenchmarkAblationEveryMap(b *testing.B) {
	var sw *experiments.MapSweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = experiments.SweepMaps(context.Background(), pipeline.Spec{Scenarios: []string{"o_oldwp7"}})
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("ablation-everymap", func() {
		fmt.Fprintf(os.Stderr, "\nEvery map (%s): %d free groups, %d maps, optimum=%v coign=%v exact=%v\n",
			sw.Scenario, sw.FreeGroups, sw.Maps, sw.Optimum, sw.Coign, sw.Exact)
	})
	b.ReportMetric(float64(sw.Maps), "maps")
	b.ReportMetric(float64(sw.Coign-sw.Optimum), "coign-gap-ns")
}
