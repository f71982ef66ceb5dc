package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/adapt"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logger"
	"repro/internal/pipeline"
	"repro/internal/scenario"
)

func cmdAdapt(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlags("adapt")
	scen := fs.String("scenario", "o_oldwp7", "scenario to re-partition")
	if err := fs.parse(args); err != nil {
		return err
	}
	rows, err := experiments.Adaptive(ctx, *scen, []string{"ISDN", "10BaseT", "100BaseT", "ATM", "SAN"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %10s %14s %14s %9s\n", "Network", "SrvInst", "Predicted", "Default", "Savings")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %13.3fs %13.3fs %8.0f%%\n",
			r.Network, r.ServerInstances, r.PredictedComm.Seconds(),
			r.DefaultComm.Seconds(), r.Savings*100)
	}
	return nil
}

func cmdOverhead(_ context.Context, args []string, w io.Writer) error {
	fs := newFlags("overhead")
	scen := fs.String("scenario", "o_oldwp0", "scenario to measure")
	reps := fs.Int("reps", 5, "repetitions (best-of)")
	if err := fs.parse(args); err != nil {
		return err
	}
	row, err := experiments.MeasureOverhead(*scen, *reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, row)
	return nil
}

func cmdDrift(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlags("drift")
	optimized := fs.String("optimized-for", "o_oldwp0", "scenario the distribution was computed from")
	observed := fs.String("observed", "o_oldbth", "scenario representing actual usage")
	threshold := fs.Float64("threshold", 0.3, "drift threshold recommending re-profiling")
	if err := fs.parse(args); err != nil {
		return err
	}
	res, err := pipeline.Run(ctx, pipeline.Spec{Scenarios: []string{*optimized}})
	if err != nil {
		return err
	}
	if obs, err := scenario.Lookup(*observed); err != nil {
		return err
	} else if obs.App != res.Spec.App {
		return fmt.Errorf("scenarios belong to different applications (%s vs %s)", res.Spec.App, obs.App)
	}
	dog, err := adapt.NewWatchdog(res.Profile, *threshold, 50)
	if err != nil {
		return err
	}
	// The observed usage runs the binary the rewriter wrote.
	if err := res.ADPS.WriteDistribution(res.Analysis); err != nil {
		return err
	}
	cfg, err := res.ADPS.RunConfig(dist.ModeCoign, *observed)
	if err != nil {
		return err
	}
	cfg.Trace = new(logger.Trace) // folds the profile, stores no event
	run, err := dist.Run(cfg)
	if err != nil {
		return err
	}
	if err := dog.Observe(run.Profile); err != nil {
		return err
	}
	fmt.Fprintf(w, "distribution optimized for %s, observed usage %s\n", *optimized, *observed)
	fmt.Fprintf(w, "  drift: %.3f (threshold %.2f) — re-profile: %v\n",
		dog.Drift(), *threshold, dog.ShouldReprofile())
	for _, d := range dog.TopDivergences(5) {
		fmt.Fprintf(w, "  %-40s -> %-40s profiled %.1f%% observed %.1f%%\n",
			d.Src, d.Dst, d.ProfiledShare*100, d.ObservedShare*100)
	}
	return nil
}

func cmdCache(_ context.Context, args []string, w io.Writer) error {
	fs := newFlags("cache")
	scen := fs.String("scenario", "o_oldwp7", "scenario to measure")
	if err := fs.parse(args); err != nil {
		return err
	}
	cmp, err := experiments.CompareCaching(*scen)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s with per-interface caching:\n", cmp.Scenario)
	fmt.Fprintf(w, "  plain:  %.3fs\n", cmp.Plain.Seconds())
	fmt.Fprintf(w, "  cached: %.3fs (%d hits, %.0f%% further savings)\n",
		cmp.Cached.Seconds(), cmp.CacheHits, cmp.Savings*100)
	return nil
}
