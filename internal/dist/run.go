package dist

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/caching"
	"repro/internal/classify"
	"repro/internal/com"
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
	// classification→machine map (see factory.place).
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
	// Distribution is the classification→machine map for ModeCoign.
	Distribution map[string]com.Machine
	// Network is the simulated network; nil means 10BaseT.
	Network *netsim.Model
	// EnableCaching turns on per-interface result caching for methods
	// marked Cacheable (the semi-custom-marshaling analog); effective in
	// ModeDefault and ModeCoign.
	EnableCaching bool
	// Jitter samples stochastic message times instead of means.
	Jitter bool
	// Trace, when set, records the run into it: every event, and the
	// profile folded from them (Result.Profile), in any mode but ModeBare.
	// Without it a ModeProfiling run folds its profile and stores no event,
	// and the other modes record nothing: the null logger.
	Trace *logger.Trace
	// Faults, when set, simulates a lossy network in ModeDefault and
	// ModeCoign: the frames of cross-machine calls are dropped/corrupted
	// per the policy (seeded from Seed, so chaos runs reproduce exactly)
	// and calls are retried with backoff. If any call exhausts its attempt
	// budget the run fails with an error wrapping ErrTimeout, and returns
	// its Result, priced and counted, with it.
	Faults *FaultPolicy
}

// Result reports one run's outcome.
type Result struct {
	Clock      *Clock
	Profile    *profile.Profile // folded from the run's events: ModeProfiling, or with Config.Trace
	Trace      *logger.Trace    // Config.Trace
	Instances  int
	PerMachine [2]int // indexed by com.Machine
	// AppInstances and AppPerMachine exclude infrastructure components
	// (the file server's storage, the database engine), which are part of
	// the environment rather than of the application being partitioned —
	// the paper's figures count only application components.
	AppInstances  int
	AppPerMachine [2]int
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

// factory is the component factory (paper §3.5). Its place method is the
// one function that decides where an instantiation request is fulfilled,
// in Run and Replay alike. Real Coign runs a peer factory on every
// machine, each forwarding requests to the others; here one factory
// places every instance and the clock charges the forwarded request.
type factory struct {
	mode Mode
	dist map[string]com.Machine // the classification→machine map (ModeCoign)

	relocations int64 // requests moved away from their creator's machine
	unknown     int64 // classifications the map did not name
}

// place decides where an instantiation of class, classified as
// classification and requested from creator, is fulfilled. In ModeDefault
// every class goes to its Home: the developer's default distribution. In
// ModeCoign an infrastructure class goes to its Home whatever the map
// says, a profiled classification goes to its mapped machine, and an
// unknown one (a "new classification" in the sense of paper Table 2)
// follows its creator: an unknown component at worst stays local.
func (f *factory) place(classification string, class *com.Class, creator com.Machine) com.Machine {
	if f.mode == ModeDefault || class.Infrastructure {
		return class.Home
	}
	target, known := f.dist[classification]
	if !known {
		f.unknown++
		target = creator
	}
	if target != creator {
		f.relocations++
	}
	return target
}

// machinery builds what an execution under cfg is placed and priced by, for
// Run and Replay alike: the clock (message jitter and, in ModeDefault and
// ModeCoign, cfg.Faults reporting to sink, each seeded from cfg.Seed) and,
// in ModeDefault and ModeCoign, the component factory. ModeBare and
// ModeProfiling get no factory: every instance follows its creator. A
// fault policy whose rates are not probabilities is refused in any mode.
func machinery(cfg Config, sink *logger.Trace) (*Clock, *factory, error) {
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(); err != nil {
			return nil, nil, err
		}
	}
	net := cfg.Network
	if net == nil {
		net = netsim.TenBaseT
	}
	var rng *rand.Rand
	if cfg.Jitter {
		rng = rand.New(rand.NewSource(cfg.Seed + 0x5eed))
	}
	//lint:allow ctxthread the clock of a simulation is built here, once, and threaded everywhere else.
	clock := NewClock(net, rng)
	switch cfg.Mode {
	case ModeBare, ModeProfiling:
		return clock, nil, nil
	case ModeDefault:
	case ModeCoign:
		if len(cfg.Distribution) == 0 {
			return nil, nil, fmt.Errorf("dist: ModeCoign requires a distribution map")
		}
	default:
		return nil, nil, fmt.Errorf("dist: unknown mode %d", cfg.Mode)
	}
	if cfg.Faults != nil {
		clock.SetFaults(*cfg.Faults, rand.New(rand.NewSource(cfg.Seed^0x0fa17)), sink)
	}
	return clock, &factory{mode: cfg.Mode, dist: cfg.Distribution}, nil
}

// count counts one instance of class on machine m.
func (res *Result) count(class *com.Class, m com.Machine) {
	res.Instances++
	res.PerMachine[m]++
	if !class.Infrastructure {
		res.AppInstances++
		res.AppPerMachine[m]++
	}
}

// settle copies the clock's and the factory's counters into res and fails
// the execution if its virtual clock overflowed or a call exhausted its
// attempt budget. A failed execution still returns res, priced up to its
// end (or, on overflow, priced up to the last charge that fit and counted
// up to the call that overflowed), with the error:
// the faults and the time it cost are the report of a chaos run that gave
// up.
func settle(cfg Config, res *Result, fac *factory) (*Result, error) {
	f := res.Clock.faults
	if f != nil {
		res.Retries, res.FaultDrops, res.FaultCorruptions, res.FaultGiveUps = f.retries, f.faulted[dropped], f.faulted[corrupted], f.giveups
	}
	if fac != nil {
		res.Relocations, res.Unknown = fac.relocations, fac.unknown
	}
	if err := res.Clock.err; err != nil {
		return res, fmt.Errorf("dist: scenario %s: %w", cfg.Scenario, err)
	}
	if res.FaultGiveUps > 0 {
		return res, fmt.Errorf("dist: scenario %s: %d call(s) undeliverable after %d attempt(s): %w",
			cfg.Scenario, res.FaultGiveUps, f.pol.MaxAttempts, ErrTimeout)
	}
	return res, nil
}

// Run drives one scenario execution under the configured mode. Every mode
// but ModeBare sizes a call the same way (see package rte) and only where
// the size is read: in ModeProfiling every call, for the profile; in
// ModeDefault and ModeCoign the calls that cross machines, for the clock,
// and every call once Config.Trace records it.
func Run(cfg Config) (*Result, error) {
	if cfg.App == nil || cfg.App.Main == nil {
		return nil, fmt.Errorf("dist: config has no runnable application")
	}
	if cfg.Mode != ModeBare && cfg.Classifier == nil {
		return nil, fmt.Errorf("dist: mode %d requires a classifier", cfg.Mode)
	}
	log := cfg.Trace
	if log == nil && cfg.Mode == ModeProfiling {
		log = new(logger.Trace) // folds the profile, stores no event
	}
	clock, fac, err := machinery(cfg, cfg.Trace)
	if err != nil {
		return nil, err
	}
	env := com.NewEnv(cfg.App)
	env.SetClock(clock)
	res := &Result{Clock: clock}

	// ModeBare runs the original binary: no runtime is attached.
	var r *rte.RTE
	var cache *caching.Cache
	if cfg.Mode != ModeBare {
		// Profiling runs the non-distributed application: no factory, so
		// every instance follows its creator and nothing crosses.
		var comm rte.CommSink
		var placer rte.Placer
		if fac != nil {
			comm, placer = clock, fac.place
			if cfg.EnableCaching {
				cache = caching.New()
			}
		}
		if r, err = rte.Attach(env, rte.Options{
			Logger: log,
			Table:  classify.NewTable(cfg.Classifier),
			Placer: placer,
			Comm:   comm,
			Cache:  cache,
		}); err != nil {
			return nil, err
		}
		r.BeginRun(cfg.Scenario)
	}
	//lint:allow wallclock measuring real wall time of the scenario run
	start := time.Now()
	if err := cfg.App.Main(env, cfg.Scenario, cfg.Seed); err != nil {
		return nil, fmt.Errorf("dist: scenario %s: %w", cfg.Scenario, err)
	}
	res.WallTime = time.Since(start)
	for _, in := range env.Instances() {
		res.count(in.Class, in.Machine)
	}
	if r == nil {
		return res, nil
	}
	r.EndRun()
	if cache != nil {
		res.CacheHits = cache.Hits()
	}
	res.Violations = r.Violations()
	res.TrappedCalls = r.Calls()
	if log != nil {
		if err := log.Err(); err != nil {
			return nil, fmt.Errorf("dist: scenario %s: event trace: %w", cfg.Scenario, err)
		}
		res.Profile, res.Trace = log.Profile(), cfg.Trace
	}
	return settle(cfg, res, fac)
}
