package dist

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/caching"
	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/factory"
	"repro/internal/logger"
	"repro/internal/netsim"
	"repro/internal/profile"
	"repro/internal/rte"
)

// Mode selects the instrumentation configuration of a run.
type Mode int

// Run modes.
const (
	// ModeBare runs the original binary with no Coign runtime at all; the
	// baseline for instrumentation-overhead measurements. No placement or
	// communication accounting occurs.
	ModeBare Mode = iota
	// ModeDefault runs the application in the developer's default
	// distribution (classes at their Home machines, data files on the
	// server) with the lightweight runtime, accounting cross-machine
	// communication. This is Table 4's "default" column.
	ModeDefault
	// ModeProfiling runs the instrumented binary through a profiling
	// scenario: every call is sized and the profiling logger summarizes
	// ICC. The application itself runs non-distributed, as during Coign's
	// scenario-based profiling.
	ModeProfiling
	// ModeCoign runs the application in a Coign-chosen distribution: the
	// null logger and the component factory enforcing the
	// classification→machine map.
	ModeCoign
)

// Config describes one run.
type Config struct {
	App      *com.App
	Scenario string
	Seed     int64
	Mode     Mode

	// Classifier is required for every mode except ModeBare.
	Classifier classify.Classifier
	// InstanceDetail keeps per-instance edges in profiling runs (needed
	// for classifier-accuracy evaluation).
	InstanceDetail bool
	// Distribution is the classification→machine map for ModeCoign.
	Distribution map[string]com.Machine
	// Network is the simulated network; nil means 10BaseT.
	Network *netsim.Model
	// ExtraLogger, when set, receives events in ModeDefault and ModeCoign
	// alongside the null logger — the hook for the adapt package's
	// message-counting watchdog (paper §6).
	ExtraLogger logger.Logger
	// EnableCaching turns on per-interface result caching for methods
	// marked Cacheable (the semi-custom-marshaling analog); effective in
	// ModeDefault and ModeCoign.
	EnableCaching bool
	// Jitter samples stochastic message times instead of means.
	Jitter bool
	// EventTrace additionally records a full event trace.
	EventTrace bool
	// Faults, when set, simulates a lossy network in ModeDefault and
	// ModeCoign: cross-machine messages are dropped/corrupted per the
	// policy (seeded from Seed, so chaos runs reproduce exactly) and
	// retransmitted with backoff. If any message exhausts its attempt
	// budget the run fails with an error wrapping ErrTimeout.
	Faults *FaultPolicy
}

// Result reports one run's outcome.
type Result struct {
	Clock      *Clock
	Profile    *profile.Profile
	Events     *logger.EventLogger
	Instances  int
	PerMachine map[com.Machine]int
	// AppInstances and AppPerMachine exclude infrastructure components
	// (the file server's storage, the database engine), which are part of
	// the environment rather than of the application being partitioned —
	// the paper's figures count only application components.
	AppInstances  int
	AppPerMachine map[com.Machine]int
	Violations    int
	// Relocations and Unknown are component-factory counters (ModeCoign).
	Relocations int64
	Unknown     int64
	// WallTime is real (host) execution time, used by the
	// instrumentation-overhead benchmarks.
	WallTime time.Duration
	// TrappedCalls is the number of interface calls the RTE observed.
	TrappedCalls int64
	// CacheHits counts cross-machine calls answered from the
	// per-interface cache (EnableCaching).
	CacheHits int64
	// Retries, FaultDrops, FaultCorruptions, and FaultGiveUps summarize
	// simulated network faults and the runtime's recovery (Config.Faults).
	Retries          int64
	FaultDrops       int64
	FaultCorruptions int64
	FaultGiveUps     int64
}

// homePlacer realizes the developer's default distribution: every class at
// its Home machine.
var homePlacer = rte.PlacerFunc(func(_ string, cl *com.Class, _ com.Machine) com.Machine {
	return cl.Home
})

// Run drives one scenario execution under the configured mode. Every mode
// but ModeBare sizes a call the same way (see package rte) and only where
// the size is read: in ModeProfiling every call, for the profile; in
// ModeDefault and ModeCoign the calls that cross machines, for the clock,
// and every call once an extra logger or the event trace records it.
func Run(cfg Config) (*Result, error) {
	if cfg.App == nil || cfg.App.Main == nil {
		return nil, fmt.Errorf("dist: config has no runnable application")
	}
	net := cfg.Network
	if net == nil {
		net = netsim.TenBaseT
	}
	var rng *rand.Rand
	if cfg.Jitter {
		rng = rand.New(rand.NewSource(cfg.Seed + 0x5eed))
	}
	//lint:allow ctxthread Run is the root of a simulation; the clock it builds here is the one threaded everywhere else.
	clock := NewClock(net, rng)
	env := com.NewEnv(cfg.App)
	env.SetClock(clock)

	res := &Result{
		Clock:         clock,
		PerMachine:    make(map[com.Machine]int),
		AppPerMachine: make(map[com.Machine]int),
	}
	tally := func() {
		res.Instances = env.TotalInstances()
		for _, in := range env.Instances() {
			res.PerMachine[in.Machine]++
			if !in.Class.Infrastructure {
				res.AppInstances++
				res.AppPerMachine[in.Machine]++
			}
		}
	}

	if cfg.Mode == ModeBare {
		//lint:allow wallclock measuring real wall time of the undistributed run
		start := time.Now()
		if err := cfg.App.Main(env, cfg.Scenario, cfg.Seed); err != nil {
			return nil, fmt.Errorf("dist: scenario %s: %w", cfg.Scenario, err)
		}
		res.WallTime = time.Since(start)
		tally()
		return res, nil
	}

	if cfg.Classifier == nil {
		return nil, fmt.Errorf("dist: mode %d requires a classifier", cfg.Mode)
	}
	table := classify.NewTable(cfg.Classifier)

	var log logger.Logger
	var plog *logger.Profiling
	var placer rte.Placer
	var comm rte.CommSink

	switch cfg.Mode {
	case ModeDefault:
		log = logger.Null{}
		placer = homePlacer
		comm = clock
	case ModeProfiling:
		plog = logger.NewProfiling(cfg.Classifier.Name(), cfg.InstanceDetail)
		log = plog
		// Profiling runs on the non-distributed application.
		placer = rte.FollowCreator
		comm = nil
	case ModeCoign:
		if len(cfg.Distribution) == 0 {
			return nil, fmt.Errorf("dist: ModeCoign requires a distribution map")
		}
		log = logger.Null{}
		fac, err := factory.New(cfg.Distribution)
		if err != nil {
			return nil, err
		}
		// Infrastructure classes never move, whatever the map says.
		placer = rte.PlacerFunc(func(classification string, cl *com.Class, creator com.Machine) com.Machine {
			if cl.Infrastructure {
				return cl.Home
			}
			return fac.Place(classification, cl, creator)
		})
		comm = clock
		defer func() {
			res.Relocations = fac.Relocations()
			res.Unknown = fac.Unknown()
		}()
	default:
		return nil, fmt.Errorf("dist: unknown mode %d", cfg.Mode)
	}

	if cfg.ExtraLogger != nil && (cfg.Mode == ModeDefault || cfg.Mode == ModeCoign) {
		log = cfg.ExtraLogger
	}

	var ev *logger.EventLogger
	if cfg.EventTrace {
		ev = logger.NewEventLogger(nil)
		log = logger.Multi{log, ev}
	}

	if cfg.Faults != nil && (cfg.Mode == ModeDefault || cfg.Mode == ModeCoign) {
		frng := rand.New(rand.NewSource(cfg.Seed ^ 0x0fa17))
		sink, _ := log.(logger.FaultSink)
		clock.SetFaults(*cfg.Faults, frng, sink)
	}

	var cache *caching.Cache
	if cfg.EnableCaching && (cfg.Mode == ModeDefault || cfg.Mode == ModeCoign) {
		cache = caching.New(0)
	}
	r, err := rte.Attach(env, rte.Options{
		Logger: log,
		Table:  table,
		Placer: placer,
		Comm:   comm,
		Cache:  cache,
	})
	if err != nil {
		return nil, err
	}
	r.LoadBinary("coign.rt")
	r.LoadBinary(cfg.App.Name + ".exe")

	r.BeginRun(cfg.Scenario)
	//lint:allow wallclock measuring real wall time of the scenario run
	start := time.Now()
	if err := cfg.App.Main(env, cfg.Scenario, cfg.Seed); err != nil {
		return nil, fmt.Errorf("dist: scenario %s: %w", cfg.Scenario, err)
	}
	res.WallTime = time.Since(start)
	r.EndRun()

	tally()
	if cache != nil {
		res.CacheHits = cache.Hits()
	}
	res.Violations = r.Violations()
	res.TrappedCalls = r.Calls()
	res.Events = ev
	res.Retries = clock.Retries()
	res.FaultDrops = clock.FaultDrops()
	res.FaultCorruptions = clock.FaultCorruptions()
	res.FaultGiveUps = clock.FaultGiveUps()
	if plog != nil {
		res.Profile = plog.LastRun()
	}
	if res.FaultGiveUps > 0 {
		return nil, fmt.Errorf("dist: scenario %s: %d message(s) undeliverable after %d attempt(s): %w",
			cfg.Scenario, res.FaultGiveUps, cfg.Faults.withDefaults().MaxAttempts, ErrTimeout)
	}
	return res, nil
}
