package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/dist"
	"repro/internal/logger"
	"repro/internal/pipeline"
)

// cmdChaos runs one scenario in its default distribution over a lossy
// network: the frames of cross-machine calls are dropped/corrupted per the
// configured (or model-derived) rates and calls are retried with backoff.
// The same seed always produces the same fault schedule. With -trace it
// first prints the run's fault records, read back from its stored trace,
// also when a call gave up and failed the run. A run that gives up on a
// call, or whose virtual clock overflows, prints as a FAILED outcome.
func cmdChaos(_ context.Context, args []string, w io.Writer) error {
	fs := newFlags("chaos")
	scen := fs.String("scenario", "o_oldwp7", "scenario to run")
	network := fs.String("network", "10BaseT", "network model")
	drop := fs.Float64("drop", 0.05, "per-frame drop probability")
	corrupt := fs.Float64("corrupt", 0.05, "per-frame corruption probability")
	timeout := fs.Duration("timeout", 250*time.Millisecond, "virtual wait charged per dropped frame")
	attempts := fs.Int("attempts", 4, "delivery attempts per call (1 disables retries)")
	backoff := fs.Duration("backoff", 10*time.Millisecond, "initial retry backoff (doubles per retry)")
	seed := fs.Int64("seed", 1, "fault-schedule seed (same seed, same faults)")
	fromModel := fs.Bool("from-model", false, "derive drop/corrupt rates from the network model's loss figure")
	trace := fs.Bool("trace", false, "print every injected fault")
	if err := fs.parse(args); err != nil {
		return err
	}
	if *attempts < 1 {
		return fmt.Errorf("chaos: -attempts %d: a message needs at least one delivery attempt", *attempts)
	}
	adps, err := pipeline.Open(pipeline.Spec{Scenarios: []string{*scen}, Network: *network})
	if err != nil {
		return err
	}
	pol := &dist.FaultPolicy{
		Drop:       *drop,
		Corrupt:    *corrupt,
		CallPolicy: dist.CallPolicy{Timeout: *timeout, MaxAttempts: *attempts, Backoff: *backoff},
	}
	if *fromModel {
		pol.Drop, pol.Corrupt = dist.ModelRates(adps.Network)
	}
	cfg, err := adps.RunConfig(dist.ModeDefault, *scen)
	if err != nil {
		return err
	}
	cfg.Seed, cfg.Faults = *seed, pol
	if *trace {
		cfg.Trace = logger.NewTrace()
	}
	res, err := dist.Run(cfg)
	if err != nil && !errors.Is(err, dist.ErrTimeout) && !errors.Is(err, dist.ErrClockOverflow) {
		return err
	}
	if *trace {
		for i := 0; i < cfg.Trace.Len(); i++ {
			if ev := cfg.Trace.At(i); ev.Kind == logger.EvFault {
				f := ev.Fault
				fmt.Fprintf(w, "fault %s attempt=%d bytes=%d penalty=%v\n", f.Kind, f.Attempt, f.Bytes, f.Penalty)
			}
		}
	}
	fmt.Fprintf(w, "%s on %s (drop %.1f%%, corrupt %.1f%%, %d attempt(s), seed %d)\n",
		*scen, cfg.Network.Name, pol.Drop*100, pol.Corrupt*100, pol.MaxAttempts, cfg.Seed)
	if err != nil {
		fmt.Fprintf(w, "  outcome: FAILED — %v\n", err)
	} else {
		fmt.Fprintf(w, "  outcome:   completed (%d components, %d messages, %d bytes)\n",
			res.Instances, res.Clock.Messages(), res.Clock.Bytes())
		fmt.Fprintf(w, "  comm time: %v (compute %v)\n", res.Clock.CommTime(), res.Clock.ComputeTime())
	}
	fmt.Fprintf(w, "  faults:    %d drops, %d corruptions, %d retries, %d giveups\n",
		res.FaultDrops, res.FaultCorruptions, res.Retries, res.FaultGiveUps)
	return nil
}
