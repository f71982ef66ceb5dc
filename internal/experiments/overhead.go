package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/classify"
	"repro/internal/dist"
	"repro/internal/scenario"
)

// Instrumentation overhead (paper §3.2): scenario-based profiling adds up
// to 85% to execution time (typically closer to 45%), nearly all of it in
// the profiling interface informer's parameter walks; the distribution
// informer that stays in the application afterwards costs under 3%. Here
// the profiling configuration sizes and logs every call, and the
// distribution configuration sizes only the calls that cross machines. We
// measure real (host) wall time of the same scenario under the three
// configurations.

// OverheadRow reports relative instrumentation overheads for one scenario.
type OverheadRow struct {
	Scenario             string
	Bare                 time.Duration
	Profiling            time.Duration
	Distribution         time.Duration
	ProfilingOverhead    float64 // (profiling-bare)/bare
	DistributionOverhead float64 // (distribution-bare)/bare
}

// MeasureOverhead runs one scenario reps times under each of the bare,
// profiling, and distribution-runtime configurations and reports the
// best (minimum) wall time of each. The configurations take turns within
// each repetition, and every run starts from a fresh collection, so no
// configuration pays for the garbage of the one before it or runs only
// while the host is busy.
func MeasureOverhead(scenName string, reps int) (*OverheadRow, error) {
	info, err := scenario.Lookup(scenName)
	if err != nil {
		return nil, err
	}
	if reps < 1 {
		reps = 1
	}
	run := func(mode dist.Mode) (time.Duration, error) {
		app, err := scenario.NewApp(info.App)
		if err != nil {
			return 0, err
		}
		cfg := dist.Config{App: app, Scenario: scenName, Mode: mode}
		if mode != dist.ModeBare {
			cfg.Classifier = classify.New(classify.IFCB, 0)
		}
		runtime.GC()
		res, err := dist.Run(cfg)
		if err != nil {
			return 0, err
		}
		return res.WallTime, nil
	}
	// ModeDefault is the lightweight distribution runtime.
	modes := [3]dist.Mode{dist.ModeBare, dist.ModeProfiling, dist.ModeDefault}
	var best [3]time.Duration
	for i := range best {
		best[i] = time.Duration(1<<62 - 1)
	}
	for i := 0; i < reps; i++ {
		for m, mode := range modes {
			d, err := run(mode)
			if err != nil {
				return nil, err
			}
			best[m] = min(best[m], d)
		}
	}
	bare, prof, distr := best[0], best[1], best[2]
	row := &OverheadRow{
		Scenario:     scenName,
		Bare:         bare,
		Profiling:    prof,
		Distribution: distr,
	}
	if bare > 0 {
		row.ProfilingOverhead = float64(prof-bare) / float64(bare)
		row.DistributionOverhead = float64(distr-bare) / float64(bare)
	}
	return row, nil
}

// String renders the row on one line, as `coign overhead` prints it.
func (r *OverheadRow) String() string {
	return fmt.Sprintf("%s: bare=%v profiling=%v (+%.0f%%) distribution=%v (+%.0f%%)",
		r.Scenario, r.Bare, r.Profiling, r.ProfilingOverhead*100,
		r.Distribution, r.DistributionOverhead*100)
}
