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
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
)

// BenchmarkAblationMinCutPushRelabel times the production cut
// (highest-label push-relabel) on synthetic ICC graphs.
func BenchmarkAblationMinCutPushRelabel(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := experiments.SyntheticCutInstance(n, 7)
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
				g := experiments.SyntheticCutInstance(n, 7)
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
// (the paper's future-work extension) on synthetic three-terminal graphs.
func BenchmarkAblationMultiwayCut(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := experiments.SyntheticCutInstance(n, 11)
				g.AddEdge("middle", "n00001", 3*time.Second)
				b.StartTimer()
				_, _, err := g.MultiwayCut([]graph.MultiwayTerminal{
					{Machine: "client", Pinned: []string{"client"}},
					{Machine: "middle", Pinned: []string{"middle"}},
					{Machine: "server", Pinned: []string{"server"}},
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

// BenchmarkAblationWhatIfReplay sweeps random distributions over one
// scenario's event trace, confirming empirically that the Coign cut is the
// communication floor (paper §3.3's trace-driven simulation put to work).
func BenchmarkAblationWhatIfReplay(b *testing.B) {
	var res *experiments.WhatIfResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.WhatIf(context.Background(), "o_oldwp7", 40, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("ablation-whatif", func() {
		fmt.Fprintf(os.Stderr, "\nWhat-if replay (%s): coign=%v best-random=%v worst-random=%v beaten=%d/%d\n",
			res.Scenario, res.CoignComm, res.BestRandom, res.WorstRandom, res.Beaten, res.Samples)
	})
	b.ReportMetric(float64(res.Beaten), "random-assignments-beating-coign")
}
