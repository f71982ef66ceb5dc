package adapt

import (
	"context"
	"testing"

	"repro/internal/apps/octarine"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logger"
	"repro/internal/profile"

	"repro/internal/classify"
)

// usage returns a profile of app "a" under ifcb whose edges, keyed by
// source and destination classification, carry the given call counts.
func usage(calls map[[2]string]int) *profile.Profile {
	p := profile.New("a", "ifcb")
	for k, n := range calls {
		for range n {
			p.Edge(k[0], k[1]).Record(10, 10, false)
		}
	}
	return p
}

func TestWatchdogObserve(t *testing.T) {
	t.Parallel()
	w, err := NewWatchdog(usage(map[[2]string]int{{"x", "y"}: 1}), 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := w.Observe(usage(map[[2]string]int{{"x", "y"}: 2, {"y", "z"}: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.observed.TotalCalls(); got != 6 {
		t.Fatalf("observed calls = %d, want 6", got)
	}
	if got := w.observed.Edge("x", "y").Calls; got != 4 {
		t.Fatalf("observed x->y calls = %d, want 4", got)
	}
	other := profile.New("a", "pcb")
	if err := w.Observe(other); err == nil {
		t.Error("a run under another classifier was observed")
	}
}

func TestDriftMetric(t *testing.T) {
	t.Parallel()
	p := usage(map[[2]string]int{{"x", "y"}: 2, {"y", "z"}: 1})

	// Identical mix: zero drift.
	same := usage(map[[2]string]int{{"x", "y"}: 20, {"y", "z"}: 10})
	if d := Drift(p, same); d > 1e-9 {
		t.Errorf("identical mix drift = %v", d)
	}
	// Disjoint edges: full drift.
	other := usage(map[[2]string]int{{"q", "r"}: 5})
	if d := Drift(p, other); d < 0.999 {
		t.Errorf("disjoint drift = %v", d)
	}
	// Empty observation vs profiled: full drift; both empty: none.
	empty := profile.New("a", "ifcb")
	if d := Drift(p, empty); d < 0.999 {
		t.Errorf("empty observation drift = %v", d)
	}
	if d := Drift(empty, empty); d != 0 {
		t.Errorf("both-empty drift = %v", d)
	}
}

func TestWatchdogValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewWatchdog(nil, 0.3, 10); err == nil {
		t.Error("nil profile accepted")
	}
	p := profile.New("a", "ifcb")
	for _, bad := range []float64{0, 1, -1, 2} {
		if _, err := NewWatchdog(p, bad, 10); err == nil {
			t.Errorf("threshold %v accepted", bad)
		}
	}
}

func TestWatchdogMinCalls(t *testing.T) {
	t.Parallel()
	p := profile.New("a", "ifcb")
	p.Edge("x", "y").Record(1, 1, false)
	w, err := NewWatchdog(p, 0.3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Observe(usage(map[[2]string]int{{"q", "r"}: 1})); err != nil {
		t.Fatal(err)
	}
	if w.ShouldReprofile() {
		t.Error("verdict before MinCalls observations")
	}
}

// TestWatchdogDetectsUsageShift is the end-to-end §6 scenario: optimize
// the application for text documents, then watch it being used for mixed
// documents — the watchdog must recommend re-profiling, while continued
// text usage must not trigger it.
func TestWatchdogDetectsUsageShift(t *testing.T) {
	t.Parallel()
	app := octarine.New()
	adps := core.New(app)
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	baseline, _, err := adps.ProfileScenario(octarine.ScenOldWp0, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adps.Analyze(context.Background(), baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := adps.WriteDistribution(res); err != nil {
		t.Fatal(err)
	}

	runWith := func(scenario string) *Watchdog {
		w, err := NewWatchdog(baseline, 0.3, 50)
		if err != nil {
			t.Fatal(err)
		}
		run, err := dist.Run(dist.Config{
			App: app, Scenario: scenario, Mode: dist.ModeCoign,
			Classifier:   classify.New(classify.IFCB, 0),
			Distribution: res.Distribution,
			Trace:        new(logger.Trace), // folds the profile, stores no event
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Observe(run.Profile); err != nil {
			t.Fatal(err)
		}
		return w
	}

	sameUsage := runWith(octarine.ScenOldWp0)
	if sameUsage.ShouldReprofile() {
		t.Errorf("profiled usage flagged as drift (%.3f)", sameUsage.Drift())
	}
	shifted := runWith(octarine.ScenOldBth)
	if !shifted.ShouldReprofile() {
		t.Errorf("usage shift not detected (drift %.3f)", shifted.Drift())
	}
	if shifted.Drift() <= sameUsage.Drift() {
		t.Errorf("drift ordering: shifted %.3f <= same %.3f",
			shifted.Drift(), sameUsage.Drift())
	}
	// Diagnostics point at the table/negotiation machinery.
	top := shifted.TopDivergences(5)
	if len(top) == 0 {
		t.Fatal("no divergences reported")
	}
	if len(shifted.TopDivergences(2)) != 2 {
		t.Error("TopDivergences did not truncate")
	}
}
