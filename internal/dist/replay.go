package dist

import (
	"fmt"

	"repro/internal/com"
	"repro/internal/logger"
	"repro/internal/rte"
)

// Replay is Run without the application: it walks an event-logger trace
// (paper §3.3: logs from the event logger "drive detailed application
// simulations") and places and prices it exactly as Run would under cfg,
// with the same clock, component factory and Result. Each instance is
// placed when its instantiation is reached, by one factory.place call
// with its creator's machine as Run's factory sees it; a remote
// instantiation and every call whose endpoints land on different machines
// go to Clock.RemoteCall. A trace recorded at cfg.Seed
// of cfg.App, scenario cfg.Scenario, replays to Run(cfg)'s CommTime,
// counts, placements and fault counters exactly. The trace carries the
// classifications, so cfg.Classifier is not consulted, and nothing is
// logged: cfg.Trace is not used either.
//
// A trace carries communication only, so the replayed clock accrues no
// compute time, and it cannot price what its records do not determine:
// ModeBare and ModeProfiling (nothing crosses), and EnableCaching (a cache
// hit depends on argument values the trace does not carry) are errors.
func Replay(cfg Config, trace *logger.Trace) (*Result, error) {
	switch {
	case trace.Err() != nil:
		return nil, fmt.Errorf("dist: cannot replay an incomplete trace: %w", trace.Err())
	case cfg.App == nil:
		return nil, fmt.Errorf("dist: replay config has no application")
	case cfg.Mode == ModeBare || cfg.Mode == ModeProfiling:
		return nil, fmt.Errorf("dist: a trace prices ModeDefault and ModeCoign only, not mode %d", cfg.Mode)
	case cfg.EnableCaching:
		return nil, fmt.Errorf("dist: a trace cannot price caching: hits depend on argument values it does not carry")
	}
	clock, fac, err := machinery(cfg, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Clock: clock}
	// machineOf is indexed by the dense instance id: the runtime numbers a
	// run's instances 1, 2, 3, ... in instantiation order, and 0 is the
	// main program.
	machineOf := []com.Machine{com.Client}
	for i := 0; i < trace.Len(); i++ {
		switch ev := trace.At(i); ev.Kind {
		case logger.EvInstantiation:
			in := ev.Inst
			class := cfg.App.Classes.LookupName(in.Class)
			if class == nil {
				return nil, fmt.Errorf("dist: trace instantiates unknown class %q", in.Class)
			}
			if in.CreatorInst >= uint64(len(machineOf)) {
				return nil, fmt.Errorf("dist: instance %d has unknown creator %d", in.ID, in.CreatorInst)
			}
			creator := machineOf[in.CreatorInst]
			switch next := uint64(len(machineOf)); {
			case in.ID < next:
				return nil, fmt.Errorf("dist: trace instantiates instance %d twice", in.ID)
			case in.ID != next:
				return nil, fmt.Errorf("dist: trace instantiates instance %d out of order, want id %d", in.ID, next)
			}
			m := fac.place(in.Classification, class, creator)
			machineOf = append(machineOf, m)
			res.count(class, m)
			if m != creator {
				req, resp := rte.ActivationBytes(class)
				clock.RemoteCall(creator, m, req, resp)
			}
		case logger.EvCall:
			c := ev.Call
			if c.SrcInst >= uint64(len(machineOf)) {
				return nil, fmt.Errorf("dist: trace calls from unknown instance %d", c.SrcInst)
			}
			if c.DstInst >= uint64(len(machineOf)) {
				return nil, fmt.Errorf("dist: trace calls unknown instance %d", c.DstInst)
			}
			src, dst := machineOf[c.SrcInst], machineOf[c.DstInst]
			res.TrappedCalls++
			if src != dst {
				if c.NonRemotable {
					res.Violations++
				}
				clock.RemoteCall(src, dst, c.InBytes, c.OutBytes)
			}
		}
	}
	return settle(cfg, res, fac)
}
