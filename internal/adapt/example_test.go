package adapt_test

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/profile"
)

// The watchdog compares run-time message mixes against the profiled
// scenarios and recommends re-profiling once usage drifts (paper §6).
func ExampleWatchdog() {
	profiled := profile.New("app", "ifcb")
	profiled.Edge("form", "cache").Record(64, 64, false)
	profiled.Edge("form", "cache").Record(64, 64, false)
	profiled.Edge("cache", "db").Record(64, 2048, false)

	w, err := adapt.NewWatchdog(profiled, 0.3, 1)
	if err != nil {
		panic(err)
	}
	// The lightweight runtime folds a distributed run into a profile of
	// its own. Here usage shifts to a report-heavy mix the profile never
	// saw.
	observed := profile.New("app", "ifcb")
	for i := 0; i < 10; i++ {
		observed.Edge("report", "db").Record(64, 64, false)
	}
	if err := w.Observe(observed); err != nil {
		panic(err)
	}
	fmt.Printf("drift=%.2f reprofile=%v\n", w.Drift(), w.ShouldReprofile())
	// Output:
	// drift=1.00 reprofile=true
}
