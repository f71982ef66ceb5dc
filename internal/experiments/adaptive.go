package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// Changing scenarios and distributions (paper §4.4): a programmer's manual
// distribution is static, but Coign can repartition arbitrarily often — in
// the limit, once per execution — adapting to networks whose
// bandwidth-to-latency trade-offs differ by more than an order of
// magnitude. This experiment profiles a scenario once (ICC profiles are
// network-independent) and re-analyzes it under several network models.

// AdaptiveRow reports the distribution chosen for one network.
type AdaptiveRow struct {
	Network         string
	ServerClasses   int
	ServerInstances int64
	PredictedComm   time.Duration
	DefaultComm     time.Duration
	Savings         float64
	// WarmCut reports whether this network's cut started from the
	// previous model's solve (the ICC topology is network-independent, so
	// every cut after the first should): a warm start from its flow, or,
	// when the model priced every edge as the previous one did, its cut.
	WarmCut bool
}

// Adaptive re-partitions one scenario for each named network model.
func Adaptive(ctx context.Context, scenName string, networks []string) ([]AdaptiveRow, error) {
	run, err := pipeline.Run(ctx, pipeline.Spec{Scenarios: []string{scenName}})
	if err != nil {
		return nil, err
	}
	adps, p := run.ADPS, run.Profile
	// Every network model re-cuts the same ICC topology with different
	// edge pricing — the canonical warm-start workload — so all models
	// share one re-cut arena: the first cut is cold, the rest resume from
	// the previous model's flow. The arena is fresh, not the one the run
	// above already cut on, so the first model's row reports a cold cut.
	arena := graph.NewCutArena()
	adps.AnalysisOptions.Arena = arena
	var rows []AdaptiveRow
	for _, name := range networks {
		model, err := netsim.ByName(name)
		if err != nil {
			return nil, err
		}
		adps.Network = model
		adps.NetProfile = nil // re-profile the new network
		before := arena.Stats()
		res, err := adps.Analyze(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: adaptive %s: %w", name, err)
		}
		after := arena.Stats()
		rows = append(rows, AdaptiveRow{
			Network:         name,
			ServerClasses:   res.ServerClassifications,
			ServerInstances: res.ServerInstances,
			PredictedComm:   res.PredictedComm,
			DefaultComm:     res.DefaultComm,
			Savings:         res.Savings(),
			WarmCut:         after.Warm+after.Reused > before.Warm+before.Reused,
		})
	}
	return rows, nil
}
