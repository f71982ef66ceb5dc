package coign

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// graph-cutting algorithm (push-relabel vs BFS augmenting paths), the
// exponential message-size bucketing (vs exact byte accounting) and the
// sampled network profile (vs oracle means). Those three exhibits have no
// command of their own, so their comparisons live here with their tests.

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/netsim"
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
	var cmp *minCutComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = compareMinCut("o_oldbth")
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
	var cmp *bucketingComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = compareBucketing("o_oldwp7")
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
	var cmp *netProfileComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = compareNetworkProfile("o_oldtb3")
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

// minCutComparison cross-checks the push-relabel production cut against the
// Edmonds–Karp baseline on a scenario's concrete graph.
type minCutComparison struct {
	Scenario     string
	Nodes, Edges int
	PushRelabel  time.Duration
	EdmondsKarp  time.Duration
	WeightPR     time.Duration
	WeightEK     time.Duration
}

// compareMinCut builds the concrete ICC graph of one scenario and times
// both exact minimum-cut implementations.
func compareMinCut(scenName string) (*minCutComparison, error) {
	run, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{scenName}})
	if err != nil {
		return nil, err
	}
	// One graph for both: a cut reads the graph and never changes it.
	np := netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)
	g, _ := analysis.BuildGraph(run.Profile, np, run.ADPS.App.Classes, analysis.Options{Constraints: run.ADPS.AnalysisOptions.Constraints})
	cmp := &minCutComparison{Scenario: scenName, Nodes: g.Len(), Edges: g.Edges()}

	start := time.Now()
	pr, err := g.MinCut()
	if err != nil {
		return nil, err
	}
	cmp.PushRelabel = time.Since(start)
	cmp.WeightPR = pr.Cost

	start = time.Now()
	ek, err := g.MinCutEdmondsKarp()
	if err != nil {
		return nil, err
	}
	cmp.EdmondsKarp = time.Since(start)
	cmp.WeightEK = ek.Cost
	return cmp, nil
}

// bucketingComparison reports predicted communication time with
// exponential bucket pricing versus exact byte totals.
type bucketingComparison struct {
	Scenario      string
	BucketedComm  time.Duration
	ExactComm     time.Duration
	RelativeError float64 // |bucketed-exact| / exact
	SamePlacement bool
}

// compareBucketing runs the analysis twice — bucket representatives versus
// exact byte totals — and compares predictions and placements.
func compareBucketing(scenName string) (*bucketingComparison, error) {
	run, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{scenName}})
	if err != nil {
		return nil, err
	}
	bucketed := run.Analysis
	run.ADPS.AnalysisOptions.ExactPricing = true
	exact, err := run.ADPS.Analyze(context.Background(), run.Profile)
	if err != nil {
		return nil, err
	}
	cmp := &bucketingComparison{
		Scenario:     scenName,
		BucketedComm: bucketed.PredictedComm,
		ExactComm:    exact.PredictedComm,
	}
	cmp.RelativeError, cmp.SamePlacement = against(bucketed, exact)
	return cmp, nil
}

// against compares an analysis with its reference: the relative error of
// the predicted communication time, and whether both place every
// classification on the same machine.
func against(got, ref *analysis.Result) (relErr float64, samePlacement bool) {
	if ref.PredictedComm > 0 {
		relErr = math.Abs(float64(got.PredictedComm-ref.PredictedComm)) / float64(ref.PredictedComm)
	}
	for id, m := range got.Distribution {
		if ref.Distribution[id] != m {
			return relErr, false
		}
	}
	return relErr, true
}

// netProfileComparison reports how a sampled network profile's prediction
// differs from an oracle (exact-mean) profile.
type netProfileComparison struct {
	Scenario      string
	SampledComm   time.Duration
	OracleComm    time.Duration
	RelativeError float64
	SamePlacement bool
}

// compareNetworkProfile analyzes one scenario under a statistically
// sampled network profile and under the exact model means.
func compareNetworkProfile(scenName string) (*netProfileComparison, error) {
	run, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{scenName}})
	if err != nil {
		return nil, err
	}
	adps, p := run.ADPS, run.Profile
	sampled, err := adps.Analyze(context.Background(), p)
	if err != nil {
		return nil, err
	}
	adps.NetProfile = netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)
	oracle, err := adps.Analyze(context.Background(), p)
	if err != nil {
		return nil, err
	}
	cmp := &netProfileComparison{
		Scenario:    scenName,
		SampledComm: sampled.PredictedComm,
		OracleComm:  oracle.PredictedComm,
	}
	cmp.RelativeError, cmp.SamePlacement = against(sampled, oracle)
	return cmp, nil
}

func TestCompareMinCut(t *testing.T) {
	t.Parallel()
	cmp, err := compareMinCut("o_oldbth")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.WeightPR != cmp.WeightEK {
		t.Errorf("algorithms disagree: pr=%v ek=%v", cmp.WeightPR, cmp.WeightEK)
	}
	if cmp.Nodes < 100 {
		t.Errorf("graph too small: %d nodes", cmp.Nodes)
	}
}

func TestCompareBucketing(t *testing.T) {
	t.Parallel()
	cmp, err := compareBucketing("o_oldwp7")
	if err != nil {
		t.Fatal(err)
	}
	// Bucket quantization stays within a factor-of-two envelope of exact
	// pricing; the paper relies on it not changing placement decisions.
	if cmp.RelativeError > 1.0 {
		t.Errorf("bucketing error = %v", cmp.RelativeError)
	}
	if !cmp.SamePlacement {
		t.Error("bucketing changed the placement")
	}
}

func TestCompareNetworkProfile(t *testing.T) {
	t.Parallel()
	cmp, err := compareNetworkProfile("o_oldtb3")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.RelativeError > 0.2 {
		t.Errorf("sampled profile error = %v", cmp.RelativeError)
	}
	if !cmp.SamePlacement {
		t.Error("sampling noise flipped the placement")
	}
}
