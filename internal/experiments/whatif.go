package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/com"
	"repro/internal/dist"
	"repro/internal/pipeline"
)

// Replay-based what-if analysis. The event logger's traces drive detailed
// application simulations (paper §3.3): here one trace evaluates many
// hypothetical distributions without re-running the application,
// confronting the Coign-chosen cut with random alternatives — an empirical
// check that the minimum cut really is the floor.

// WhatIfResult summarizes a replay sweep.
type WhatIfResult struct {
	Scenario string
	// CoignComm is the replayed communication time of the analysis
	// engine's distribution.
	CoignComm time.Duration
	// BestRandom and WorstRandom bound the sampled alternatives.
	BestRandom  time.Duration
	WorstRandom time.Duration
	// Beaten counts random assignments strictly cheaper than Coign's.
	Beaten  int
	Samples int
}

// WhatIf replays one scenario's trace under the Coign distribution and
// `samples` random distributions that respect the hard constraints
// (client-pinned, server-pinned, and co-located classifications keep their
// Coign sides; only unconstrained classifications are shuffled). It needs
// at least one sample.
func WhatIf(ctx context.Context, scenName string, samples int, seed int64) (*WhatIfResult, error) {
	if samples < 1 {
		return nil, fmt.Errorf("experiments: what-if needs at least one sample, not %d", samples)
	}
	adps, err := pipeline.Open(pipeline.Spec{Scenarios: []string{scenName}})
	if err != nil {
		return nil, err
	}
	// One traced profiling run through the session; its own profile is
	// analyzed and its trace replayed.
	if err := adps.Instrument(); err != nil {
		return nil, err
	}
	prof, run, err := adps.TraceScenario(scenName)
	if err != nil {
		return nil, err
	}
	res, err := adps.Analyze(ctx, prof)
	if err != nil {
		return nil, err
	}

	// The session's configuration, placed by each candidate map in turn.
	cfg, err := adps.RunConfig(dist.ModeDefault, scenName)
	if err != nil {
		return nil, err
	}
	cfg.Mode = dist.ModeCoign
	replayComm := func(dm map[string]com.Machine) (time.Duration, error) {
		cfg.Distribution = dm
		rr, err := dist.Replay(cfg, run.Trace)
		if err != nil {
			return 0, err
		}
		return rr.Clock.CommTime(), nil
	}

	coign, err := replayComm(res.Distribution)
	if err != nil {
		return nil, err
	}

	// Free classifications: unpinned and not touching a non-remotable
	// edge (shuffling those would produce distributions DCOM cannot run).
	constrained := map[string]bool{}
	for id := range res.Distribution {
		if _, pinned := res.Graph.Pinned(id); pinned {
			constrained[id] = true
		}
	}
	for k, e := range prof.Edges {
		if e.NonRemotable {
			constrained[k.Src] = true
			constrained[k.Dst] = true
		}
	}
	var free []string
	for id := range res.Distribution {
		if !constrained[id] {
			free = append(free, id)
		}
	}
	// Deterministic order for reproducible shuffles.
	sort.Strings(free)

	out := &WhatIfResult{Scenario: scenName, CoignComm: coign, Samples: samples}
	out.BestRandom = time.Duration(1<<62 - 1)
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < samples; s++ {
		dm := make(map[string]com.Machine, len(res.Distribution))
		for id, m := range res.Distribution {
			dm[id] = m
		}
		for _, id := range free {
			if rng.Intn(2) == 0 {
				dm[id] = com.Client
			} else {
				dm[id] = com.Server
			}
		}
		c, err := replayComm(dm)
		if err != nil {
			return nil, err
		}
		if c < out.BestRandom {
			out.BestRandom = c
		}
		if c > out.WorstRandom {
			out.WorstRandom = c
		}
		if c < coign {
			out.Beaten++
		}
	}
	return out, nil
}
