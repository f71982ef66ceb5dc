package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/classify"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/logger"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

// cmdChaos runs one scenario in its default distribution over a lossy
// network: cross-machine messages are dropped/corrupted per the configured
// (or model-derived) rates and retransmitted with backoff. The same seed
// always produces the same fault schedule.
func cmdChaos(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	scen := fs.String("scenario", "o_oldwp7", "scenario to run")
	network := fs.String("network", "10BaseT", "network model")
	drop := fs.Float64("drop", 0.05, "per-message drop probability")
	corrupt := fs.Float64("corrupt", 0.05, "per-message corruption probability")
	timeout := fs.Duration("timeout", 250*time.Millisecond, "virtual wait charged per dropped message")
	attempts := fs.Int("attempts", 4, "delivery attempts per message (1 disables retries)")
	backoff := fs.Duration("backoff", 10*time.Millisecond, "initial retransmission backoff (doubles per attempt)")
	seed := fs.Int64("seed", 1, "fault-schedule seed (same seed, same faults)")
	fromModel := fs.Bool("from-model", false, "derive drop/corrupt rates from the network model's loss figure")
	trace := fs.Bool("trace", false, "print every injected fault")
	if err := fs.Parse(args); err != nil {
		return err
	}
	info, err := scenario.Lookup(*scen)
	if err != nil {
		return err
	}
	app, err := scenario.NewApp(info.App)
	if err != nil {
		return err
	}
	model, err := netsim.ByName(*network)
	if err != nil {
		return err
	}
	pol := &dist.FaultPolicy{
		Rates:       fault.Rates{Drop: *drop, Corrupt: *corrupt},
		Timeout:     *timeout,
		MaxAttempts: *attempts,
		Backoff:     *backoff,
	}
	if *fromModel {
		pol.Rates = fault.FromModel(model)
	}
	cfg := dist.Config{
		App:        app,
		Scenario:   *scen,
		Seed:       *seed,
		Mode:       dist.ModeDefault,
		Classifier: classify.New(classify.IFCB, 0),
		Network:    model,
		Faults:     pol,
	}
	if *trace {
		cfg.Trace = logger.NewTrace(os.Stdout)
	}
	res, err := dist.Run(cfg)
	if err != nil {
		if errors.Is(err, dist.ErrTimeout) {
			fmt.Printf("%s on %s (drop %.1f%%, corrupt %.1f%%, %d attempt(s), seed %d)\n",
				*scen, model.Name, pol.Rates.Drop*100, pol.Rates.Corrupt*100, *attempts, *seed)
			fmt.Printf("  outcome: FAILED — %v\n", err)
			return nil
		}
		return err
	}
	fmt.Printf("%s on %s (drop %.1f%%, corrupt %.1f%%, %d attempt(s), seed %d)\n",
		*scen, model.Name, pol.Rates.Drop*100, pol.Rates.Corrupt*100, *attempts, *seed)
	fmt.Printf("  outcome:   completed (%d components, %d messages, %d bytes)\n",
		res.Instances, res.Clock.Messages(), res.Clock.Bytes())
	fmt.Printf("  comm time: %v (compute %v)\n", res.Clock.CommTime(), res.Clock.ComputeTime())
	fmt.Printf("  faults:    %d drops, %d corruptions, %d retries, %d giveups\n",
		res.FaultDrops, res.FaultCorruptions, res.Retries, res.FaultGiveUps)
	return nil
}
