package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/pipeline"
)

// Instrumentation overhead (paper §3.2): scenario-based profiling adds up
// to 85% to execution time (typically closer to 45%), nearly all of it in
// the profiling interface informer's parameter walks; the distribution
// informer that stays in the application afterwards costs under 3%. Here
// the profiling configuration sizes and logs every call, and the
// distribution configuration sizes only the calls that cross machines. We
// measure real (host) wall time of the same scenario under the three
// configurations, and count the heap objects each run allocates: counts
// do not depend on how busy the host is.

// OverheadRow reports relative instrumentation overheads for one scenario.
type OverheadRow struct {
	Scenario             string
	Bare                 time.Duration
	Profiling            time.Duration
	Distribution         time.Duration
	ProfilingOverhead    float64 // (profiling-bare)/bare
	DistributionOverhead float64 // (distribution-bare)/bare

	// Calls and Instances count one run's trapped interface calls and
	// instantiations; they are the same in every configuration.
	Calls     int64
	Instances int
	// BareObjects, ProfilingObjects and DistributionObjects count the heap
	// objects one run allocates, the fewest over the repetitions. The
	// count is process-wide: measure while nothing else runs.
	BareObjects         uint64
	ProfilingObjects    uint64
	DistributionObjects uint64
}

// PerCall spreads a run's objects over its trapped calls.
func (r *OverheadRow) PerCall(objects uint64) float64 {
	return float64(objects) / float64(max(r.Calls, 1))
}

// PerInstance spreads a run's objects over its instantiations.
func (r *OverheadRow) PerInstance(objects uint64) float64 {
	return float64(objects) / float64(max(r.Instances, 1))
}

// heapObjects reads the process's cumulative heap allocations. It stops
// the world to flush every P's cached spans into the count, which
// runtime/metrics does not do, so it is exact at any moment; the pause
// falls outside the wall time dist.Run measures.
func heapObjects() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// MeasureOverhead runs one scenario reps times under each of one session's
// bare, profiling, and distribution-runtime configurations and reports the
// best (minimum) wall time and the fewest heap objects of each. The
// configurations take turns within each repetition, and every run starts
// from a fresh collection, so no configuration pays for the garbage of the
// one before it or runs only while the host is busy.
func MeasureOverhead(scenName string, reps int) (*OverheadRow, error) {
	adps, err := pipeline.Open(pipeline.Spec{Scenarios: []string{scenName}})
	if err != nil {
		return nil, err
	}
	if reps < 1 {
		reps = 1
	}
	run := func(mode dist.Mode) (*dist.Result, uint64, error) {
		cfg, err := adps.RunConfig(mode, scenName)
		if err != nil {
			return nil, 0, err
		}
		runtime.GC()
		before := heapObjects()
		res, err := dist.Run(cfg)
		objects := heapObjects() - before
		if err != nil {
			return nil, 0, err
		}
		return res, objects, nil
	}
	// ModeDefault is the lightweight distribution runtime.
	modes := [3]dist.Mode{dist.ModeBare, dist.ModeProfiling, dist.ModeDefault}
	var best [3]time.Duration
	var objects [3]uint64
	for i := range best {
		best[i] = time.Duration(1<<62 - 1)
		objects[i] = ^uint64(0)
	}
	row := &OverheadRow{Scenario: scenName}
	for i := 0; i < reps; i++ {
		for m, mode := range modes {
			res, n, err := run(mode)
			if err != nil {
				return nil, err
			}
			best[m] = min(best[m], res.WallTime)
			objects[m] = min(objects[m], n)
			// The bare run has no runtime to count its calls; the
			// scenario makes the same ones under every configuration.
			row.Calls = max(row.Calls, res.TrappedCalls)
			row.Instances = res.Instances
		}
	}
	bare, prof, distr := best[0], best[1], best[2]
	row.Bare, row.Profiling, row.Distribution = bare, prof, distr
	row.BareObjects, row.ProfilingObjects, row.DistributionObjects = objects[0], objects[1], objects[2]
	if bare > 0 {
		row.ProfilingOverhead = float64(prof-bare) / float64(bare)
		row.DistributionOverhead = float64(distr-bare) / float64(bare)
	}
	return row, nil
}

// String renders the row as `coign overhead` prints it: the wall times and
// percentages on the first line, then each configuration's heap objects
// per trapped call and per instantiation.
func (r *OverheadRow) String() string {
	s := fmt.Sprintf("%s: bare=%v profiling=%v (+%.0f%%) distribution=%v (+%.0f%%)",
		r.Scenario, r.Bare, r.Profiling, r.ProfilingOverhead*100,
		r.Distribution, r.DistributionOverhead*100)
	s += fmt.Sprintf("\nobjects per call / per instantiation (%d calls, %d instances): bare=%.2f/%.1f profiling=%.2f/%.1f distribution=%.2f/%.1f",
		r.Calls, r.Instances,
		r.PerCall(r.BareObjects), r.PerInstance(r.BareObjects),
		r.PerCall(r.ProfilingObjects), r.PerInstance(r.ProfilingObjects),
		r.PerCall(r.DistributionObjects), r.PerInstance(r.DistributionObjects))
	return s
}
