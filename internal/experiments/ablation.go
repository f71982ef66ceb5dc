package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// Ablations for the design choices DESIGN.md calls out: the graph-cutting
// algorithm, the exponential message-size bucketing, and the sampled
// network profile.

// MinCutComparison cross-checks the push-relabel production cut against the
// Edmonds–Karp baseline on a scenario's concrete graph.
type MinCutComparison struct {
	Scenario     string
	Nodes, Edges int
	PushRelabel  time.Duration
	EdmondsKarp  time.Duration
	WeightPR     time.Duration
	WeightEK     time.Duration
}

// CompareMinCut builds the concrete ICC graph of one scenario and times
// both exact minimum-cut implementations.
func CompareMinCut(scenName string) (*MinCutComparison, error) {
	run, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{scenName}})
	if err != nil {
		return nil, err
	}
	np := netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)
	build := func() *graph.Graph {
		g, _ := analysis.BuildGraph(run.Profile, np, run.ADPS.App.Classes, analysis.Options{})
		return g
	}

	cmp := &MinCutComparison{Scenario: scenName}
	g := build()
	cmp.Nodes, cmp.Edges = g.Len(), g.Edges()

	start := time.Now()
	pr, err := g.MinCut()
	if err != nil {
		return nil, err
	}
	cmp.PushRelabel = time.Since(start)
	cmp.WeightPR = pr.Cost

	g2 := build()
	start = time.Now()
	ek, err := g2.MinCutEdmondsKarp()
	if err != nil {
		return nil, err
	}
	cmp.EdmondsKarp = time.Since(start)
	cmp.WeightEK = ek.Cost
	return cmp, nil
}

// BucketingComparison reports predicted communication time with
// exponential bucket pricing versus exact byte totals.
type BucketingComparison struct {
	Scenario      string
	BucketedComm  time.Duration
	ExactComm     time.Duration
	RelativeError float64 // |bucketed-exact| / exact
	SamePlacement bool
}

// CompareBucketing runs the analysis twice — bucket representatives versus
// exact byte totals — and compares predictions and placements.
func CompareBucketing(scenName string) (*BucketingComparison, error) {
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
	cmp := &BucketingComparison{
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

// NetProfileComparison reports how a sampled network profile's prediction
// differs from an oracle (exact-mean) profile.
type NetProfileComparison struct {
	Scenario      string
	SampledComm   time.Duration
	OracleComm    time.Duration
	RelativeError float64
	SamePlacement bool
}

// CompareNetworkProfile analyzes one scenario under a statistically
// sampled network profile and under the exact model means.
func CompareNetworkProfile(scenName string, samples int) (*NetProfileComparison, error) {
	run, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{scenName}})
	if err != nil {
		return nil, err
	}
	adps, p := run.ADPS, run.Profile
	adps.Samples = samples
	adps.NetProfile = nil // re-sample the network with the requested count
	sampled, err := adps.Analyze(context.Background(), p)
	if err != nil {
		return nil, err
	}
	adps.NetProfile = netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)
	oracle, err := adps.Analyze(context.Background(), p)
	if err != nil {
		return nil, err
	}
	cmp := &NetProfileComparison{
		Scenario:    scenName,
		SampledComm: sampled.PredictedComm,
		OracleComm:  oracle.PredictedComm,
	}
	cmp.RelativeError, cmp.SamePlacement = against(sampled, oracle)
	return cmp, nil
}

// SyntheticCutInstance builds a random two-terminal graph of the given
// size for min-cut scaling benchmarks.
func SyntheticCutInstance(nodes int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	g.Pin("client", graph.SourceSide)
	g.Pin("server", graph.SinkSide)
	name := func(i int) string { return fmt.Sprintf("n%05d", i) }
	for i := 0; i < nodes; i++ {
		if i%13 == 0 {
			g.AddEdge("client", name(i), time.Duration(rng.Float64()*5e9))
		}
		if i%17 == 0 {
			g.AddEdge(name(i), "server", time.Duration(rng.Float64()*5e9))
		}
		for k := 0; k < 3; k++ {
			g.AddEdge(name(i), name(rng.Intn(nodes)), time.Duration(rng.Float64()*1e9))
		}
	}
	return g
}

// CachingComparison reports the effect of per-interface caching
// (semi-custom marshaling) on a Coign distribution's communication.
type CachingComparison struct {
	Scenario  string
	Plain     time.Duration
	Cached    time.Duration
	CacheHits int64
	Savings   float64
}

// CompareCaching runs one scenario's Coign distribution with and without
// per-interface caching on its cacheable methods.
func CompareCaching(scenName string) (*CachingComparison, error) {
	run, err := pipeline.Run(context.Background(), pipeline.Spec{Scenarios: []string{scenName}})
	if err != nil {
		return nil, err
	}
	adps := run.ADPS
	if err := adps.WriteDistribution(run.Analysis); err != nil {
		return nil, err
	}
	cfg, err := adps.RunConfig(dist.ModeCoign, scenName)
	if err != nil {
		return nil, err
	}
	plain, err := dist.Run(cfg)
	if err != nil {
		return nil, err
	}
	cfg.EnableCaching = true
	cached, err := dist.Run(cfg)
	if err != nil {
		return nil, err
	}
	cmp := &CachingComparison{
		Scenario:  scenName,
		Plain:     plain.Clock.CommTime(),
		Cached:    cached.Clock.CommTime(),
		CacheHits: cached.CacheHits,
	}
	if plain.Clock.CommTime() > 0 {
		cmp.Savings = 1 - float64(cached.Clock.CommTime())/float64(plain.Clock.CommTime())
	}
	return cmp, nil
}
