package dist

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/logger"
	"repro/internal/netsim"
)

// simChaosRun executes the pipeline scenario on the virtual clock under a
// fault policy and returns the result plus the fault trail from the trace.
func simChaosRun(t *testing.T, seed int64, pol *FaultPolicy) (*Result, []logger.FaultRecord) {
	t.Helper()
	trace := logger.NewTrace()
	res, err := Run(Config{
		App: pipelineApp(), Scenario: "big", Seed: seed, Mode: ModeDefault,
		Classifier: classify.New(classify.IFCB, 0),
		Trace:      trace,
		Faults:     pol,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	var trail []logger.FaultRecord
	for _, ev := range events(trace) {
		if ev.Kind == logger.EvFault {
			trail = append(trail, ev.Fault)
		}
	}
	return res, trail
}

func TestChaosSimPipelineCompletesWithRetries(t *testing.T) {
	t.Parallel()
	pol := &FaultPolicy{Drop: 0.05, Corrupt: 0.05}
	res, trail := simChaosRun(t, 7, pol)
	if res.FaultDrops+res.FaultCorruptions == 0 {
		t.Fatal("5% rates injected nothing on the big scenario; pick another seed")
	}
	if res.Retries != res.FaultDrops+res.FaultCorruptions {
		t.Fatalf("every fault should force a retry when the budget allows: %d faults, %d retries",
			res.FaultDrops+res.FaultCorruptions, res.Retries)
	}
	if res.FaultGiveUps != 0 {
		t.Fatalf("run completed but reports %d giveups", res.FaultGiveUps)
	}
	if int64(len(trail)) != res.FaultDrops+res.FaultCorruptions {
		t.Fatalf("trace has %d fault events, counters say %d", len(trail), res.FaultDrops+res.FaultCorruptions)
	}
	// Faults cost time: the same run without faults is strictly faster.
	clean, err := Run(Config{
		App: pipelineApp(), Scenario: "big", Seed: 7, Mode: ModeDefault,
		Classifier: classify.New(classify.IFCB, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clock.CommTime() <= clean.Clock.CommTime() {
		t.Fatalf("faulted comm time %v not above clean %v", res.Clock.CommTime(), clean.Clock.CommTime())
	}
}

func TestChaosSimReproducibleFromSeed(t *testing.T) {
	t.Parallel()
	pol := &FaultPolicy{Drop: 0.05, Corrupt: 0.05}
	a, trailA := simChaosRun(t, 7, pol)
	b, trailB := simChaosRun(t, 7, pol)
	if a.Clock.CommTime() != b.Clock.CommTime() || a.Clock.Messages() != b.Clock.Messages() {
		t.Fatalf("same seed, different virtual outcome: %v/%d vs %v/%d",
			a.Clock.CommTime(), a.Clock.Messages(), b.Clock.CommTime(), b.Clock.Messages())
	}
	if !reflect.DeepEqual(trailA, trailB) {
		t.Fatalf("same seed, different fault trails:\n%v\n%v", trailA, trailB)
	}
	c, _ := simChaosRun(t, 8, pol)
	if a.Clock.CommTime() == c.Clock.CommTime() && a.Retries == c.Retries {
		t.Fatal("different seeds produced identical chaos outcomes")
	}
}

func TestChaosSimFailsFastWhenRetriesDisabled(t *testing.T) {
	t.Parallel()
	_, err := Run(Config{
		App: pipelineApp(), Scenario: "big", Seed: 7, Mode: ModeDefault,
		Classifier: classify.New(classify.IFCB, 0),
		Faults:     &FaultPolicy{Drop: 0.5, CallPolicy: CallPolicy{MaxAttempts: 1}},
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestGivenUpRunReturnsItsPrice: a run that gives up on a call fails with
// ErrTimeout and returns its Result with the error, counted and priced to
// its end, from Run and from Replay alike, and the two agree.
func TestGivenUpRunReturnsItsPrice(t *testing.T) {
	t.Parallel()
	trace := pipelineTrace(t, "big", 7)
	cfg := Config{App: pipelineApp(), Scenario: "big", Seed: 7, Mode: ModeDefault,
		Classifier: classify.New(classify.IFCB, 0),
		Faults:     &FaultPolicy{Drop: 0.5, CallPolicy: CallPolicy{MaxAttempts: 1}}}
	run, runErr := Run(cfg)
	rep, repErr := Replay(cfg, trace)
	for what, c := range map[string]struct {
		res *Result
		err error
	}{"Run": {run, runErr}, "Replay": {rep, repErr}} {
		if !errors.Is(c.err, ErrTimeout) {
			t.Fatalf("%s: err = %v, want ErrTimeout", what, c.err)
		}
		if c.res == nil || c.res.FaultGiveUps == 0 || c.res.Clock.Messages() == 0 {
			t.Fatalf("%s returned %+v with its error, want the priced run", what, c.res)
		}
	}
	if got, want := priced(rep), priced(run); got != want {
		t.Errorf("given-up replay %s\nrun              %s", got, want)
	}
}

func TestReplayWithFaultsChargesRetransmissions(t *testing.T) {
	t.Parallel()
	trace := pipelineTrace(t, "big", 11)
	// Everything on the client but Storage, which is infrastructure and
	// stays on the server: every block read crosses.
	dm := map[string]com.Machine{}
	for _, ev := range events(trace) {
		if ev.Kind == logger.EvInstantiation {
			dm[ev.Inst.Classification] = com.Client
		}
	}
	cfg := Config{App: pipelineApp(), Scenario: "big", Seed: 11, Mode: ModeCoign,
		Classifier: classify.New(classify.IFCB, 0), Distribution: dm}
	clean := replayEqualsRun(t, cfg, trace)
	cfg.Faults = &FaultPolicy{Drop: 0.1, Corrupt: 0.1, CallPolicy: CallPolicy{MaxAttempts: 8}}
	faulted := replayEqualsRun(t, cfg, trace)
	if faulted.FaultDrops+faulted.FaultCorruptions == 0 {
		t.Fatal("10% rates injected nothing into the replay; pick another seed")
	}
	if faulted.Clock.CommTime() <= clean.Clock.CommTime() || faulted.Clock.Messages() <= clean.Clock.Messages() {
		t.Fatalf("faulted %s not above clean %s", priced(faulted), priced(clean))
	}
	if faulted.Clock.Bytes() != clean.Clock.Bytes() {
		t.Fatalf("payload bytes should be charged once: %d vs %d", faulted.Clock.Bytes(), clean.Clock.Bytes())
	}
	again, err := Replay(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if priced(again) != priced(faulted) {
		t.Fatalf("same seed, different replay: %s vs %s", priced(again), priced(faulted))
	}
}

// overflowPolicy is a policy validate accepts whose every call gives up
// after 20 attempts, 20 s of deadlines and Backoff·(2^19 - 1) ≈ 524,287 h
// of backoff: four give-ups fit in a time.Duration, the fifth does not.
var overflowPolicy = FaultPolicy{Drop: 1, CallPolicy: CallPolicy{Timeout: time.Second, MaxAttempts: 20, Backoff: time.Hour}}

// TestClockOverflowIsAnError: a charge that would carry the clock past the
// largest time.Duration is refused and becomes the clock's error, so its
// times never wrap negative; a call after it counts no message, byte or
// fault; and Run and Replay return that error with their Result priced
// and counted up to the overflow.
func TestClockOverflowIsAnError(t *testing.T) {
	t.Parallel()
	if err := overflowPolicy.validate(); err != nil {
		t.Fatalf("the policy must be one validate accepts: %v", err)
	}
	c := NewClock(netsim.TenBaseT, nil)
	c.SetFaults(overflowPolicy, rand.New(rand.NewSource(1)), nil)
	for i := 1; i <= 5; i++ {
		before := c.CommTime()
		c.RemoteCall(com.Client, com.Server, 100, 100)
		if c.CommTime() < before || c.Elapsed() < 0 {
			t.Fatalf("call %d: comm %v after %v, elapsed %v", i, c.CommTime(), before, c.Elapsed())
		}
		if overflowed := errors.Is(c.err, ErrClockOverflow); overflowed != (i == 5) {
			t.Fatalf("call %d: clock error %v", i, c.err)
		}
	}
	counts := func() [6]int64 {
		f := c.faults
		return [6]int64{c.Messages(), c.Bytes(), f.faulted[dropped], f.faulted[corrupted], f.retries, f.giveups}
	}
	overflowed := counts()
	for i := 0; i < 3; i++ {
		c.RemoteCall(com.Client, com.Server, 100, 100)
	}
	if after := counts(); after != overflowed {
		t.Fatalf("calls after the overflow moved the counts (messages, bytes, drops, corruptions, retries, give-ups) from %v to %v", overflowed, after)
	}

	trace := pipelineTrace(t, "big", 7)
	cfg := Config{App: pipelineApp(), Scenario: "big", Seed: 7, Mode: ModeDefault,
		Classifier: classify.New(classify.IFCB, 0), Faults: &overflowPolicy}
	run, runErr := Run(cfg)
	rep, repErr := Replay(cfg, trace)
	for what, c := range map[string]struct {
		res *Result
		err error
	}{"Run": {run, runErr}, "Replay": {rep, repErr}} {
		if !errors.Is(c.err, ErrClockOverflow) {
			t.Fatalf("%s: err = %v, want ErrClockOverflow", what, c.err)
		}
		if c.res == nil || c.res.Clock.CommTime() < 0 || c.res.Clock.Elapsed() < 0 {
			t.Fatalf("%s returned %+v with its error, want the run priced up to the overflow", what, c.res)
		}
		// Five calls of 20 dropped attempts each, the fifth overflowing:
		// nothing after it counts.
		if got := [4]int64{c.res.Clock.Messages(), c.res.FaultDrops, c.res.Retries, c.res.FaultGiveUps}; got != [4]int64{100, 100, 95, 5} {
			t.Errorf("%s: messages, drops, retries, give-ups = %v, want [100 100 95 5]", what, got)
		}
	}
}

// TestModelRates: every network model's loss figure derives a valid
// fault policy with its Loss dropped and a quarter of it corrupt, so a
// lossy wire drops more than it corrupts and the loopback is fault-free.
func TestModelRates(t *testing.T) {
	t.Parallel()
	for _, m := range netsim.Models() {
		var pol FaultPolicy
		pol.Drop, pol.Corrupt = ModelRates(m)
		if pol.Drop != m.Loss || pol.Corrupt != m.Loss/4 {
			t.Errorf("%s: ModelRates = %v, %v; want Loss %v, Loss/4 %v", m.Name, pol.Drop, pol.Corrupt, m.Loss, m.Loss/4)
		}
		if m.Loss > 0 && pol.Corrupt >= pol.Drop {
			t.Errorf("%s: corrupt rate %v not below drop rate %v", m.Name, pol.Corrupt, pol.Drop)
		}
		if err := pol.validate(); err != nil {
			t.Errorf("%s: derived policy refused: %v", m.Name, err)
		}
	}
	if drop, corrupt := ModelRates(netsim.Loopback); drop != 0 || corrupt != 0 {
		t.Errorf("loopback should be fault-free, got drop %v, corrupt %v", drop, corrupt)
	}
}

// TestFaultPolicyRatesAreProbabilities: Run and Replay refuse a fault
// policy whose drop or corrupt rate is NaN or outside [0, 1], or whose
// rates sum above 1, in every mode; rates on the boundary run, and fail
// only as an undeliverable call does. Every network model's loss figure
// derives a policy that runs.
func TestFaultPolicyRatesAreProbabilities(t *testing.T) {
	t.Parallel()
	trace := pipelineTrace(t, "big", 7)
	type row struct {
		name    string
		pol     FaultPolicy
		refusal string // the refusal's words, or "" when the policy runs
		timeout bool   // every message faults, so one gives up
	}
	rows := []row{
		{"no faults", FaultPolicy{}, "", false},
		{"small rates", FaultPolicy{Drop: 0.05, Corrupt: 0.05}, "", false},
		{"drop every message", FaultPolicy{Drop: 1}, "", true},
		{"rates summing to one", FaultPolicy{Drop: 0.4, Corrupt: 0.6}, "", true},
		{"drop above one", FaultPolicy{Drop: 1.5}, "fault rates", false},
		{"corrupt above one", FaultPolicy{Corrupt: 1.2}, "fault rates", false},
		{"negative drop", FaultPolicy{Drop: -0.5}, "fault rates", false},
		{"negative rates", FaultPolicy{Drop: -0.5, Corrupt: -0.2}, "fault rates", false},
		{"sum above one", FaultPolicy{Drop: 0.6, Corrupt: 0.5}, "fault rates", false},
		{"NaN drop", FaultPolicy{Drop: math.NaN()}, "fault rates", false},
		{"NaN corrupt", FaultPolicy{Corrupt: math.NaN()}, "fault rates", false},
	}
	for _, m := range netsim.Models() {
		var pol FaultPolicy
		pol.Drop, pol.Corrupt = ModelRates(m)
		rows = append(rows, row{m.Name + "'s rates", pol, "", false})
	}
	for _, c := range rows {
		refuses := c.refusal != ""
		cfg := Config{App: pipelineApp(), Scenario: "big", Seed: 7, Mode: ModeDefault,
			Classifier: classify.New(classify.IFCB, 0),
			Faults:     &c.pol}
		_, runErr := Run(cfg)
		_, replayErr := Replay(cfg, trace)
		for what, err := range map[string]error{"Run": runErr, "Replay": replayErr} {
			refused := err != nil && refuses && strings.Contains(err.Error(), c.refusal)
			if refused != refuses || !refuses && errors.Is(err, ErrTimeout) != c.timeout {
				t.Errorf("%s: %s err = %v, want refusal %q, timeout %v", c.name, what, err, c.refusal, c.timeout)
			}
		}
		// A profiling run sends nothing across, yet refuses the policy too.
		cfg.Mode = ModeProfiling
		if _, err := Run(cfg); (err != nil) != refuses {
			t.Errorf("%s: profiling Run err = %v, want refusal %q", c.name, err, c.refusal)
		}
	}
}
