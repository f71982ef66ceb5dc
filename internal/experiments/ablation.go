package experiments

import (
	"context"
	"time"

	"repro/internal/dist"
	"repro/internal/pipeline"
)

// The caching ablation behind coign cache. The other ablations of the
// design choices DESIGN.md calls out (the cut algorithm, bucketing, the
// sampled network profile) are exhibits only and live beside their
// benchmarks in the root bench_ablation_test.go.

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
