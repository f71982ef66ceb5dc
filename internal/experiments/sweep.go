package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/com"
	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// Exhaustive map sweep. Event logs "drive detailed application
// simulations" (paper §3.3): one trace prices any distribution without
// re-running the application, so where the constraints leave few free
// components the cut is held against every distribution they allow.

// MaxSweepGroups caps the free weld groups SweepMaps enumerates: 2^16 maps.
const MaxSweepGroups = 16

// TooManyGroupsError is SweepMaps' refusal, before any replay, of a graph
// with more than MaxSweepGroups free weld groups.
type TooManyGroupsError struct {
	Scenario   string
	FreeGroups int
}

func (e *TooManyGroupsError) Error() string {
	return fmt.Sprintf("experiments: %s has %d free weld groups, over the map sweep's cap of %d",
		e.Scenario, e.FreeGroups, MaxSweepGroups)
}

// MapSweep is one scenario's trace replayed under every distribution its
// graph allows: each of FreeGroups unpinned weld groups on either side,
// Maps = 2^FreeGroups in all. Optimum is the least replayed communication
// time over the maps with zero violations (math.MaxInt64 if none has).
// Coign replays the product cut (bucketed, sampled network profile), Exact
// the cut priced from exact byte totals under the model's exact means.
type MapSweep struct {
	Scenario              string
	FreeGroups, Maps      int
	Optimum, Coign, Exact time.Duration
}

// SweepMaps traces the spec's one scenario, cuts its profile twice in the
// session (product pricing, then exact pricing through the same arena),
// and replays the trace under every side assignment of the graph's free
// weld groups; above MaxSweepGroups it returns a *TooManyGroupsError. The
// spec asks for no coverage welds or pins, which the sweep would drop.
func SweepMaps(ctx context.Context, spec pipeline.Spec) (*MapSweep, error) {
	if len(spec.Scenarios) != 1 || spec.Coverage || len(spec.Pins) > 0 {
		return nil, fmt.Errorf("experiments: a map sweep traces one scenario, with no coverage welds or pins")
	}
	scen := spec.Scenarios[0]
	adps, err := pipeline.Open(spec)
	if err != nil {
		return nil, err
	}
	if err := adps.Instrument(); err != nil {
		return nil, err
	}
	prof, run, err := adps.ProfileScenario(scen, true)
	if err != nil {
		return nil, err
	}
	res, err := adps.Analyze(ctx, prof)
	if err != nil {
		return nil, err
	}
	adps.AnalysisOptions.ExactPricing = true
	adps.NetProfile = netsim.ExactProfile(adps.Network, netsim.DefaultSampleSizes)
	exact, err := adps.Analyze(ctx, prof)
	if err != nil {
		return nil, err
	}

	// Weld groups: breadth-first over the graph's pair-wise welds. A group
	// with a pinned member (the main program's among them) is not free.
	g := res.Graph
	names := g.NodeNames()
	grouped := make([]bool, len(names))
	var free [][]string
	for i := range names {
		if grouped[i] {
			continue
		}
		grouped[i] = true
		group, pinned := []string{names[i]}, false
		for q := 0; q < len(group); q++ {
			_, p := g.Pinned(group[q])
			pinned = pinned || p
			for j := range names {
				if !grouped[j] && g.CoLocated(group[q], names[j]) {
					grouped[j] = true
					group = append(group, names[j])
				}
			}
		}
		if !pinned {
			free = append(free, group)
		}
	}
	if len(free) > MaxSweepGroups {
		return nil, &TooManyGroupsError{Scenario: scen, FreeGroups: len(free)}
	}

	// The session's configuration, placed by each map in turn.
	cfg, err := adps.RunConfig(dist.ModeDefault, scen)
	if err != nil {
		return nil, err
	}
	cfg.Mode = dist.ModeCoign
	replay := func(dm map[string]com.Machine) (*dist.Result, error) {
		cfg.Distribution = dm
		return dist.Replay(cfg, run.Trace)
	}
	coign, err := replay(res.Distribution)
	if err != nil {
		return nil, err
	}
	exactRun, err := replay(exact.Distribution)
	if err != nil {
		return nil, err
	}
	out := &MapSweep{Scenario: scen, FreeGroups: len(free), Maps: 1 << len(free), Optimum: math.MaxInt64,
		Coign: coign.Clock.CommTime(), Exact: exactRun.Clock.CommTime()}
	dm := res.Distribution // replayed; now moved group by group
	for mask := 0; mask < out.Maps; mask++ {
		for i, group := range free {
			for _, id := range group {
				dm[id] = com.Machine(mask >> i & 1) // bit set: com.Server
			}
		}
		rr, err := replay(dm)
		if err != nil {
			return nil, err
		}
		if c := rr.Clock.CommTime(); rr.Violations == 0 && c < out.Optimum {
			out.Optimum = c
		}
	}
	return out, nil
}
