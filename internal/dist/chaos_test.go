package dist

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/fault"
	"repro/internal/idl"
	"repro/internal/logger"
	"repro/internal/netsim"
)

// chaosPipelineRun drives the pipeline's storage component through the real
// transport with a seeded fault injector on the server's listener, and
// returns the injected-fault log plus the client's retry counters. A single
// sequential caller keeps the injector's operation sequence — and therefore
// its fault schedule — deterministic.
func chaosPipelineRun(t *testing.T, seed int64, calls int) ([]fault.Event, int64, int64) {
	t.Helper()
	app := pipelineApp()
	env := com.NewEnv(app)
	storage, err := env.CreateInstance(nil, "CLSID_Storage")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Config{
		Seed: seed,
		Send: fault.Rates{Drop: 0.05, Corrupt: 0.05},
		Recv: fault.Rates{Drop: 0.05, Corrupt: 0.05},
	})
	srv, err := Serve("127.0.0.1:0", NewStub(env).Handle, WithListenerWrapper(inj.WrapListener))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := Dial(srv.Addr(),
		WithDialSeed(seed),
		WithPolicy(CallPolicy{
			Timeout:     200 * time.Millisecond,
			MaxAttempts: 8,
			Backoff:     time.Millisecond,
			BackoffMax:  10 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	proxy := NewProxy(conn, app.Interfaces, "IStorage", storage.ID)
	for i := 0; i < calls; i++ {
		rets, err := proxy.Invoke("ReadBlock", idl.Int32(int32(i)))
		if err != nil {
			t.Fatalf("call %d under faults: %v", i, err)
		}
		if len(rets) != 1 || len(rets[0].Bytes) != 4096 {
			t.Fatalf("call %d returned wrong payload: %v", i, rets)
		}
	}
	retries, reconnects := conn.Stats()
	return inj.Events(), retries, reconnects
}

func TestChaosTransportPipelineUnderFaults(t *testing.T) {
	t.Parallel()
	events, retries, reconnects := chaosPipelineRun(t, 1, 40)
	if len(events) == 0 {
		t.Fatal("5% fault rates injected nothing over 40 calls; pick another seed")
	}
	if retries == 0 {
		t.Fatal("faults were injected but the client never retried")
	}
	t.Logf("completed 40 calls under %d injected faults (%d retries, %d reconnects)",
		len(events), retries, reconnects)
}

func TestChaosTransportReproducibleFromSeed(t *testing.T) {
	t.Parallel()
	a, retriesA, reconnectsA := chaosPipelineRun(t, 2, 25)
	b, retriesB, reconnectsB := chaosPipelineRun(t, 2, 25)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different fault schedules:\n%v\n%v", a, b)
	}
	if retriesA != retriesB || reconnectsA != reconnectsB {
		t.Fatalf("same seed, different recovery: (%d,%d) vs (%d,%d)",
			retriesA, reconnectsA, retriesB, reconnectsB)
	}
	c, _, _ := chaosPipelineRun(t, 3, 25)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestChaosTransportFailsFastWithoutRetries(t *testing.T) {
	t.Parallel()
	app := pipelineApp()
	env := com.NewEnv(app)
	storage, err := env.CreateInstance(nil, "CLSID_Storage")
	if err != nil {
		t.Fatal(err)
	}
	// Every server read blackholes: no request ever gets an answer.
	inj := fault.New(fault.Config{Seed: 9, Recv: fault.Rates{Drop: 1}})
	srv, err := Serve("127.0.0.1:0", NewStub(env).Handle, WithListenerWrapper(inj.WrapListener))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	_, err = conn.Call("IStorage", storage.ID, "ReadBlock", nil,
		WithTimeout(100*time.Millisecond), WithoutRetries())
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("fail-fast call took %v", d)
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Attempts != 1 {
		t.Fatalf("want a single attempt, got %+v", te)
	}
}

// simChaosRun executes the pipeline scenario on the virtual clock under a
// fault policy and returns the result plus the fault trail from the trace.
func simChaosRun(t *testing.T, seed int64, pol *FaultPolicy) (*Result, []logger.FaultRecord) {
	t.Helper()
	trace := logger.NewTrace(nil)
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
	pol := &FaultPolicy{Rates: fault.Rates{Drop: 0.05, Corrupt: 0.05}}
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
	pol := &FaultPolicy{Rates: fault.Rates{Drop: 0.05, Corrupt: 0.05}}
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
		Faults:     &FaultPolicy{Rates: fault.Rates{Drop: 0.5}, CallPolicy: CallPolicy{MaxAttempts: 1}},
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
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
	cfg.Faults = &FaultPolicy{Rates: fault.Rates{Drop: 0.1, Corrupt: 0.1}, CallPolicy: CallPolicy{MaxAttempts: 8}}
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

// TestFaultPolicyRatesAreProbabilities: Run and Replay refuse a fault
// policy whose drop or corrupt rate is NaN or outside [0, 1], or whose
// rates sum above 1, or that sets a rate the virtual clock does not price
// (Truncate, Delay, DelayJitter), in every mode; rates on the boundary
// run, and fail only as an undeliverable call does.
func TestFaultPolicyRatesAreProbabilities(t *testing.T) {
	t.Parallel()
	trace := pipelineTrace(t, "big", 7)
	for _, c := range []struct {
		name    string
		rates   fault.Rates
		refusal string // the refusal's words, or "" when the policy runs
		timeout bool   // every message faults, so one gives up
	}{
		{"no faults", fault.Rates{}, "", false},
		{"small rates", fault.Rates{Drop: 0.05, Corrupt: 0.05}, "", false},
		{"drop every message", fault.Rates{Drop: 1}, "", true},
		{"rates summing to one", fault.Rates{Drop: 0.4, Corrupt: 0.6}, "", true},
		{"drop above one", fault.Rates{Drop: 1.5}, "fault rates", false},
		{"corrupt above one", fault.Rates{Corrupt: 1.2}, "fault rates", false},
		{"negative drop", fault.Rates{Drop: -0.5}, "fault rates", false},
		{"negative rates", fault.Rates{Drop: -0.5, Corrupt: -0.2}, "fault rates", false},
		{"sum above one", fault.Rates{Drop: 0.6, Corrupt: 0.5}, "fault rates", false},
		{"NaN drop", fault.Rates{Drop: math.NaN()}, "fault rates", false},
		{"NaN corrupt", fault.Rates{Corrupt: math.NaN()}, "fault rates", false},
		{"truncate", fault.Rates{Drop: 0.05, Truncate: 0.01}, "Truncate 0.01,", false},
		{"delay", fault.Rates{Delay: time.Millisecond}, "Delay 1ms,", false},
		{"delay jitter", fault.Rates{DelayJitter: time.Millisecond}, "DelayJitter 1ms:", false},
		{"a model's rates", fault.FromModel(netsim.ISDN), "Truncate 0.000625,", false},
	} {
		refuses := c.refusal != ""
		cfg := Config{App: pipelineApp(), Scenario: "big", Seed: 7, Mode: ModeDefault,
			Classifier: classify.New(classify.IFCB, 0),
			Faults:     &FaultPolicy{Rates: c.rates}}
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
