package dist

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/logger"
	"repro/internal/netsim"
)

// TestDeliveryMachineExhaustive walks the delivery state machine through
// every outcome sequence it can see, for MaxAttempts 1 to 4, and checks
// every run: it ends in a value or exactly one typed error, makes at most
// MaxAttempts attempts, stops at the first delivery, and waits Σ delay(i)
// over the retries it takes, where delay(i) is Backoff·2^(i-1).
func TestDeliveryMachineExhaustive(t *testing.T) {
	t.Parallel()
	all := []outcome{delivered, dropped, corrupted}
	typed := map[error]outcome{ErrTimeout: dropped, ErrCorrupt: corrupted}
	for max := 1; max <= 4; max++ {
		pol := CallPolicy{Timeout: time.Second, MaxAttempts: max, Backoff: 10 * time.Millisecond}
		total := 1
		for i := 0; i < max; i++ {
			total *= len(all)
		}
		for code := 0; code < total; code++ {
			seq := make([]outcome, max)
			for i, c := 0, code; i < max; i, c = i+1, c/len(all) {
				seq[i] = all[c%len(all)]
			}
			var seen []int
			var waited, want time.Duration
			attempts, err := pol.run(func(n int) outcome {
				seen = append(seen, n)
				return seq[n-1]
			}, func(d time.Duration) { waited += d })
			last := seq[attempts-1]
			for i := 1; i < attempts; i++ {
				want += pol.Backoff << (i - 1)
				if d := pol.delay(i); d != pol.Backoff<<(i-1) {
					t.Fatalf("max %d: delay(%d) = %v, want %v", max, i, d, pol.Backoff<<(i-1))
				}
				if seq[i-1] == delivered {
					t.Fatalf("max %d %v: retried after attempt %d was delivered", max, seq, i)
				}
			}
			switch {
			case attempts < 1 || attempts > max || len(seen) != attempts || seen[attempts-1] != attempts:
				t.Fatalf("max %d %v: %d attempts, numbered %v", max, seq, attempts, seen)
			case last != delivered && attempts != max:
				t.Fatalf("max %d %v: gave up on a retryable attempt %d of %d", max, seq, attempts, max)
			case waited != want:
				t.Fatalf("max %d %v: waited %v over %d retries, want %v", max, seq, waited, attempts-1, want)
			case last == delivered && err != nil:
				t.Fatalf("max %d %v: delivered, yet err %v", max, seq, err)
			case last != delivered && typed[err] != last:
				t.Fatalf("max %d %v: ended on %d with err %v, want its one typed error", max, seq, last, err)
			}
		}
	}
}

// scriptedRolls is a rand.Source whose Float64 draws are the given rolls.
type scriptedRolls []float64

func (s *scriptedRolls) Int63() int64 {
	r := (*s)[0]
	*s = (*s)[1:]
	return int64(r * (1 << 63))
}
func (s *scriptedRolls) Seed(int64) {}

// TestVirtualDeliveryCosts: the virtual driver prices an attempt at the
// round-trip granularity of the real wire. A dropped request costs the
// timeout, a corrupt one its transfer; a dropped reply costs the request's
// transfer plus the timeout, a corrupt one both transfers; every retry
// resends the request after its backoff.
func TestVirtualDeliveryCosts(t *testing.T) {
	t.Parallel()
	const req, resp = 500, 40000
	model := netsim.TenBaseT
	tReq, tResp := model.MessageTime(req), model.MessageTime(resp)
	pol := CallPolicy{Timeout: 250 * time.Millisecond, MaxAttempts: 2, Backoff: 10 * time.Millisecond}
	const ok, drop, corrupt = 0.99, 0.01, 0.3 // against rates drop 0.2, corrupt 0.2
	for _, c := range []struct {
		name  string
		rolls []float64
		cost  time.Duration
		msgs  int64
		err   error
	}{
		{"clean", []float64{ok, ok}, tReq + tResp, 2, nil},
		{"request dropped", []float64{drop, ok, ok}, pol.Timeout + 10*time.Millisecond + tReq + tResp, 3, nil},
		{"request corrupt", []float64{corrupt, ok, ok}, tReq + 10*time.Millisecond + tReq + tResp, 3, nil},
		{"reply dropped", []float64{ok, drop, ok, ok}, tReq + pol.Timeout + 10*time.Millisecond + tReq + tResp, 4, nil},
		{"reply corrupt", []float64{ok, corrupt, ok, ok}, tReq + tResp + 10*time.Millisecond + tReq + tResp, 4, nil},
		{"reply dropped twice", []float64{ok, drop, ok, drop}, 2*(tReq+pol.Timeout) + 10*time.Millisecond, 4, ErrTimeout},
		{"request then reply corrupt", []float64{corrupt, ok, corrupt}, tReq + 10*time.Millisecond + tReq + tResp, 3, ErrCorrupt},
	} {
		rolls := scriptedRolls(c.rolls)
		clock := NewClock(model, nil)
		clock.SetFaults(FaultPolicy{Drop: 0.2, Corrupt: 0.2, CallPolicy: pol}, rand.New(&rolls), nil)
		_, err := clock.deliver(req, resp)
		if err != c.err || clock.CommTime() != c.cost || clock.Messages() != c.msgs || len(rolls) != 0 {
			t.Errorf("%s: err %v, cost %v, %d messages, %d rolls left; want %v, %v, %d, 0",
				c.name, err, clock.CommTime(), clock.Messages(), len(rolls), c.err, c.cost, c.msgs)
		}
	}
}

// TestZeroPolicyFieldsMeanOneThing: a zero Timeout, MaxAttempts or Backoff
// means DefaultCallPolicy's value. Every frame is dropped, so each call
// spends its whole budget: it makes the default's attempts, waits the
// default's backoffs and charges the default's deadline per attempt.
func TestZeroPolicyFieldsMeanOneThing(t *testing.T) {
	t.Parallel()
	d := DefaultCallPolicy()
	for _, c := range []struct {
		pol      CallPolicy
		timeout  time.Duration
		attempts int
		backoff  time.Duration
	}{
		{CallPolicy{}, d.Timeout, d.MaxAttempts, d.Backoff},
		{CallPolicy{MaxAttempts: 3, Backoff: time.Millisecond}, d.Timeout, 3, time.Millisecond},
		{CallPolicy{Timeout: time.Second, Backoff: time.Millisecond}, time.Second, d.MaxAttempts, time.Millisecond},
		{CallPolicy{Timeout: time.Second, MaxAttempts: 3}, time.Second, 3, d.Backoff},
		{CallPolicy{Timeout: time.Second, MaxAttempts: 1}, time.Second, 1, d.Backoff},
	} {
		var wantWaited time.Duration
		for i := 1; i < c.attempts; i++ {
			wantWaited += c.backoff << (i - 1)
		}
		clock := NewClock(netsim.TenBaseT, nil)
		trail := logger.NewTrace()
		clock.SetFaults(FaultPolicy{Drop: 1, CallPolicy: c.pol}, rand.New(rand.NewSource(1)), trail)
		attempts, err := clock.deliver(100, 100)
		var timeouts []time.Duration
		waited := clock.CommTime()
		for _, ev := range events(trail) {
			if ev.Fault.Kind == "drop" {
				timeouts = append(timeouts, ev.Fault.Penalty)
				waited -= ev.Fault.Penalty
			}
		}

		name := fmt.Sprintf("%+v", c.pol)
		if attempts != c.attempts {
			t.Errorf("%s: %d attempts, want %d", name, attempts, c.attempts)
		}
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("%s: err %v, want ErrTimeout", name, err)
		}
		if waited != wantWaited {
			t.Errorf("%s: backoffs %v, want %v", name, waited, wantWaited)
		}
		if len(timeouts) != c.attempts {
			t.Fatalf("%s: %d timeouts, want %d", name, len(timeouts), c.attempts)
		}
		for i := range timeouts {
			if timeouts[i] != c.timeout {
				t.Errorf("%s: attempt %d timeout %v, want %v", name, i+1, timeouts[i], c.timeout)
			}
		}
	}
}

// worstCall is one call's worst case under p, its defaults filled in,
// computed without overflow: MaxAttempts·Timeout + Backoff·(2^(MaxAttempts-1) - 1).
func worstCall(p CallPolicy) *big.Int {
	doublings := new(big.Int).Lsh(big.NewInt(1), uint(p.MaxAttempts-1))
	doublings.Sub(doublings, big.NewInt(1))
	w := new(big.Int).Mul(big.NewInt(int64(p.Timeout)), big.NewInt(int64(p.MaxAttempts)))
	return w.Add(w, doublings.Mul(doublings, big.NewInt(int64(p.Backoff))))
}

// TestCallPolicyBackoffsFit: a policy is accepted exactly when one call's
// worst case, every deadline and every backoff, fits in a time.Duration,
// held to an exact big-integer sum over attempts 1 to 70 and timeouts and
// backoffs from a nanosecond to a 64th of the longest Duration, where the
// deadlines and the backoffs each fit and only their sum overflows. Every
// backoff of an accepted
// policy is positive and doubles the one before. Run refuses an
// overflowing policy before it runs and says why.
func TestCallPolicyBackoffsFit(t *testing.T) {
	t.Parallel()
	most := big.NewInt(math.MaxInt64)
	durations := []time.Duration{time.Nanosecond, time.Millisecond, 10 * time.Millisecond, 250 * time.Millisecond, time.Hour, 24 * time.Hour, math.MaxInt64 / 64}
	accepted, refused := 0, 0
	for attempts := 1; attempts <= 70; attempts++ {
		for _, timeout := range durations {
			for _, backoff := range durations {
				pol := FaultPolicy{CallPolicy: CallPolicy{Timeout: timeout, MaxAttempts: attempts, Backoff: backoff}}
				err := pol.validate()
				if fits := worstCall(pol.CallPolicy).Cmp(most) <= 0; fits != (err == nil) {
					t.Fatalf("%+v: validate err %v, worst case %v fits %v", pol.CallPolicy, err, worstCall(pol.CallPolicy), fits)
				}
				if err != nil {
					refused++
					continue
				}
				accepted++
				for i := 1; i < attempts; i++ {
					if d := pol.delay(i); d <= 0 || i > 1 && d != 2*pol.delay(i-1) {
						t.Fatalf("%+v: delay(%d) = %v after %v", pol.CallPolicy, i, d, pol.delay(i-1))
					}
				}
			}
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("%d policies accepted, %d refused: the sweep does not reach both sides", accepted, refused)
	}

	for _, c := range []struct {
		pol  CallPolicy
		fits bool
	}{
		{CallPolicy{MaxAttempts: 41, Backoff: 10 * time.Millisecond}, false},
		{CallPolicy{MaxAttempts: 58, Backoff: 10 * time.Millisecond}, false},
		{CallPolicy{MaxAttempts: 40, Backoff: 10 * time.Millisecond}, true},
		{CallPolicy{Timeout: 250 * time.Millisecond, MaxAttempts: 4, Backoff: 10 * time.Millisecond}, true},
		{CallPolicy{}, true},
	} {
		_, err := Run(Config{App: pipelineApp(), Scenario: "big", Seed: 1, Mode: ModeDefault,
			Classifier: classify.New(classify.IFCB, 0), Faults: &FaultPolicy{Drop: 0.05, CallPolicy: c.pol}})
		if refused := err != nil && strings.Contains(err.Error(), "overflow a time.Duration"); refused == c.fits {
			t.Errorf("%+v: Run err %v, want a refusal %v", c.pol, err, !c.fits)
		}
	}
}
