package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/benefits"
	"repro/internal/apps/octarine"
	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/logger"
	"repro/internal/netsim"
	"repro/internal/rte"
)

// TestDeliveryMachineExhaustive walks the delivery state machine through
// every outcome sequence it can see, for MaxAttempts 1 to 4, and checks
// every run: it ends in a value or exactly one typed error, makes at most
// MaxAttempts attempts, never retries a refused or closed call, stops at
// the first delivery, and waits Σ delay(i) over the retries it takes,
// where delay(i) is Backoff·2^(i-1) with no cap and no jitter.
func TestDeliveryMachineExhaustive(t *testing.T) {
	t.Parallel()
	all := []outcome{delivered, dropped, corrupted, refused, closed}
	typed := map[error]outcome{ErrTimeout: dropped, ErrCorrupt: corrupted, ErrRemote: refused, net.ErrClosed: closed}
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
			attempts, err := pol.run(nil, func(n int) outcome {
				seen = append(seen, n)
				return seq[n-1]
			}, func(d time.Duration) { waited += d })
			last := seq[attempts-1]
			for i := 1; i < attempts; i++ {
				want += pol.Backoff << (i - 1)
				if d := pol.delay(i, nil); d != pol.Backoff<<(i-1) {
					t.Fatalf("max %d: delay(%d) = %v, want %v", max, i, d, pol.Backoff<<(i-1))
				}
				if o := seq[i-1]; o != dropped && o != corrupted {
					t.Fatalf("max %d %v: retried after attempt %d came to %d", max, seq, i, o)
				}
			}
			switch {
			case attempts < 1 || attempts > max || len(seen) != attempts || seen[attempts-1] != attempts:
				t.Fatalf("max %d %v: %d attempts, numbered %v", max, seq, attempts, seen)
			case (last == dropped || last == corrupted) && attempts != max:
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

// roller decides each frame's fate from one seeded roll stream with
// fate, as the virtual clock does, for every connection a Conn dials.
type roller struct {
	rng       *rand.Rand
	rates     FaultPolicy     // its Drop and Corrupt
	intact    int             // requests that reached the server unharmed
	deadlines []time.Duration // per attempt, as the Conn set them
}

// rollConn is a client's end of a net.Pipe with its frames' fates rolled.
// A dropped request is swallowed, a dropped reply read and discarded, and
// either way the next Read fails at once with an expired deadline instead
// of waiting for it. A corrupt frame has its checksum flipped: the server
// rejects a corrupt request and hangs up, the client a corrupt reply.
type rollConn struct {
	net.Conn
	r    *roller
	lost bool
	buf  []byte // the unread rest of a reply frame
}

func (c *rollConn) Write(b []byte) (int, error) {
	switch fate(c.r.rng.Float64(), c.r.rates.Drop, c.r.rates.Corrupt) {
	case dropped:
		c.lost = true
		return len(b), nil
	case corrupted:
		b = append([]byte(nil), b...)
		b[4] ^= 0xa5
	default:
		c.r.intact++
	}
	return c.Conn.Write(b)
}

func (c *rollConn) Read(b []byte) (int, error) {
	if c.lost {
		return 0, os.ErrDeadlineExceeded
	}
	if len(c.buf) == 0 {
		frame := make([]byte, frameHdrLen)
		if _, err := io.ReadFull(c.Conn, frame); err != nil {
			return 0, err
		}
		frame = append(frame, make([]byte, binary.LittleEndian.Uint32(frame))...)
		if _, err := io.ReadFull(c.Conn, frame[frameHdrLen:]); err != nil {
			return 0, err
		}
		switch fate(c.r.rng.Float64(), c.r.rates.Drop, c.r.rates.Corrupt) {
		case dropped:
			c.lost = true
			return 0, os.ErrDeadlineExceeded
		case corrupted:
			frame[4] ^= 0xa5
		}
		c.buf = frame
	}
	n := copy(b, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

func (c *rollConn) SetDeadline(t time.Time) error {
	c.r.deadlines = append(c.r.deadlines, time.Until(t))
	return c.Conn.SetDeadline(t)
}

// pipeListener hands a Server the far ends of the pipes its dial makes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeConn serves h over net.Pipe and returns a Conn to it whose frames
// take their fates from r, and whose backoffs are recorded in *waits
// instead of slept.
func pipeConn(t *testing.T, h CallHandler, r *roller, pol CallPolicy, waits *[]time.Duration) *Conn {
	t.Helper()
	pl := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	srv := serve(pl, h)
	t.Cleanup(srv.Close)
	conn, err := dial(srv.Addr(), pol, 1, func(string) (net.Conn, error) {
		client, server := net.Pipe()
		pl.conns <- server
		return &rollConn{Conn: client, r: r}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.sleep = func(d time.Duration) { *waits = append(*waits, d) }
	return conn
}

// TestZeroPolicyFieldsMeanOneThing: a zero Timeout, MaxAttempts or Backoff
// means DefaultCallPolicy's value on both drivers. Every frame is dropped,
// so each call spends its whole budget: both sides make the same number of
// attempts, wait the same backoffs, and charge (virtual) or set (real)
// the same per-attempt deadline.
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
		var wantWaits []time.Duration
		for i := 1; i < c.attempts; i++ {
			wantWaits = append(wantWaits, c.backoff<<(i-1))
		}
		dropAll := FaultPolicy{Drop: 1, CallPolicy: c.pol}

		clock := NewClock(netsim.TenBaseT, nil)
		trail := logger.NewTrace()
		clock.SetFaults(dropAll, rand.New(rand.NewSource(1)), trail)
		vAttempts, vErr := clock.deliver(100, 100)
		var vTimeouts []time.Duration
		vWaited, wantWaited := clock.CommTime(), time.Duration(0)
		for _, ev := range events(trail) {
			if ev.Fault.Kind == "drop" {
				vTimeouts = append(vTimeouts, ev.Fault.Penalty)
				vWaited -= ev.Fault.Penalty
			}
		}
		for _, w := range wantWaits {
			wantWaited += w
		}

		var waits []time.Duration
		r := &roller{rng: rand.New(rand.NewSource(1)), rates: dropAll}
		conn := pipeConn(t, func(string, uint64, string, []byte) ([]byte, error) { return nil, nil }, r, c.pol, &waits)
		_, rErr := conn.Call("I", 1, "m", nil)
		var te *TransportError
		if !errors.As(rErr, &te) {
			t.Fatalf("%+v: real call err %v, want a TransportError", c.pol, rErr)
		}

		name := fmt.Sprintf("%+v", c.pol)
		if vAttempts != c.attempts || te.Attempts != c.attempts {
			t.Errorf("%s: attempts virtual %d, real %d, want %d", name, vAttempts, te.Attempts, c.attempts)
		}
		if !errors.Is(vErr, ErrTimeout) || !errors.Is(rErr, ErrTimeout) {
			t.Errorf("%s: errors virtual %v, real %v, want ErrTimeout", name, vErr, rErr)
		}
		if fmt.Sprint(waits) != fmt.Sprint(wantWaits) || vWaited != wantWaited {
			t.Errorf("%s: real waits %v, virtual backoffs %v; want %v", name, waits, vWaited, wantWaits)
		}
		if len(vTimeouts) != c.attempts || len(r.deadlines) != c.attempts {
			t.Fatalf("%s: %d virtual timeouts, %d real deadlines, want %d", name, len(vTimeouts), len(r.deadlines), c.attempts)
		}
		for i := range vTimeouts {
			if vTimeouts[i] != c.timeout || r.deadlines[i] > c.timeout || r.deadlines[i] < c.timeout-time.Second/2 {
				t.Errorf("%s: attempt %d virtual timeout %v, real deadline in %v, want %v", name, i+1, vTimeouts[i], r.deadlines[i], c.timeout)
			}
		}
	}
}

// crossingCalls is the cross-machine call sequence of app's trace in the
// developer's default distribution (every class at its Home): the request
// and reply sizes of each call, in the order Replay prices them.
func crossingCalls(app *com.App, trace *logger.Trace) [][2]int {
	var calls [][2]int
	machineOf := []com.Machine{com.Client}
	for _, ev := range events(trace) {
		switch ev.Kind {
		case logger.EvInstantiation:
			class := app.Classes.LookupName(ev.Inst.Class)
			machineOf = append(machineOf, class.Home)
			if class.Home != machineOf[ev.Inst.CreatorInst] {
				req, resp := rte.ActivationBytes(class)
				calls = append(calls, [2]int{req, resp})
			}
		case logger.EvCall:
			if machineOf[ev.Call.SrcInst] != machineOf[ev.Call.DstInst] {
				calls = append(calls, [2]int{ev.Call.InBytes, ev.Call.OutBytes})
			}
		}
	}
	return calls
}

// callTrail is what one call came to on the wire: its attempts, the
// backoffs its Conn waited, and how often the server executed it.
type callTrail struct {
	attempts int
	waits    string
	execs    int
}

// differentialPolicy is the call policy both drivers of the delivery
// protocol run under in the differential tests.
var differentialPolicy = CallPolicy{Timeout: time.Second, MaxAttempts: 4, Backoff: time.Millisecond}

// wireTally counts what the adversary reached: giveups of each kind, and
// calls the server's dedup answered again after a lost reply.
type wireTally struct{ timeouts, corrupts, reanswered int }

// scenarioCalls is the cross-machine call sequence of one scenario's
// profiled trace, checked to be the sequence Replay prices.
func scenarioCalls(t *testing.T, app *com.App, scenario string) [][2]int {
	t.Helper()
	trace := logger.NewTrace()
	if _, err := Run(Config{App: app, Scenario: scenario, Seed: 1, Mode: ModeProfiling,
		Classifier: classify.New(classify.IFCB, 0), Trace: trace}); err != nil {
		t.Fatal(err)
	}
	calls := crossingCalls(app, trace)
	clean := NewClock(netsim.TenBaseT, nil)
	for _, c := range calls {
		clean.RemoteCall(com.Client, com.Server, c[0], c[1])
	}
	replayed, err := Replay(Config{App: app, Scenario: scenario, Seed: 1, Mode: ModeDefault}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if clean.CommTime() != replayed.Clock.CommTime() || clean.Messages() != replayed.Clock.Messages() || len(calls) == 0 {
		t.Fatalf("%s: %d crossing calls price to %v/%d, Replay to %v/%d", scenario, len(calls),
			clean.CommTime(), clean.Messages(), replayed.Clock.CommTime(), replayed.Clock.Messages())
	}
	return calls
}

// differentialScenarios are the scenarios whose crossing calls the
// differential tests send.
func differentialScenarios() []struct {
	app      *com.App
	scenario string
} {
	return []struct {
		app      *com.App
		scenario string
	}{
		{pipelineApp(), "big"},
		{octarine.New(), octarine.ScenOldWp7},
		{benefits.New(), benefits.ScenAddOne},
	}
}

// sendCalls delivers calls on both drivers under drop = corrupt = p, with
// the rolls seeded by seed: it prices each call on the virtual clock and
// sends it through a Conn and a Server over net.Pipe whose frames take
// their fates from the same seeded roll sequence. For every call it
// requires the same attempt count and the same outcome (a value,
// ErrTimeout or ErrCorrupt), and at most one execution on the server:
// exactly one when the request ever arrived intact, none otherwise. It
// adds what the calls reached to tally and returns the wire's trail.
func sendCalls(t *testing.T, calls [][2]int, seed int64, p float64, name string, tally *wireTally) []callTrail {
	t.Helper()
	pol := differentialPolicy
	rates := FaultPolicy{Drop: p, Corrupt: p, CallPolicy: pol}
	clock := NewClock(netsim.TenBaseT, nil)
	clock.SetFaults(rates, rand.New(rand.NewSource(seed)), nil)

	var mu sync.Mutex
	execs := make([]int, len(calls))
	handler := func(_ string, i uint64, _ string, _ []byte) ([]byte, error) {
		mu.Lock()
		execs[i]++
		mu.Unlock()
		return make([]byte, calls[i][1]), nil
	}
	var waits []time.Duration
	r := &roller{rng: rand.New(rand.NewSource(seed)), rates: rates}
	conn := pipeConn(t, handler, r, pol, &waits)
	defer conn.Close()
	trail := make([]callTrail, len(calls))
	for i, c := range calls {
		vAttempts, vErr := clock.deliver(c[0], c[1])
		intact, tried := r.intact, len(r.deadlines)
		waits = waits[:0]
		_, err := conn.Call("I", uint64(i), "m", make([]byte, c[0]))
		attempts := len(r.deadlines) - tried
		mu.Lock()
		n := execs[i]
		mu.Unlock()
		switch {
		case attempts != vAttempts || len(waits) != attempts-1:
			t.Fatalf("%s call %d: %d attempts, %d backoffs on the wire; %d attempts virtual", name, i, attempts, len(waits), vAttempts)
		case vErr == nil && err != nil, vErr != nil && !errors.Is(err, vErr):
			t.Fatalf("%s call %d: wire err %v, virtual err %v", name, i, err, vErr)
		case vErr != nil && !errors.Is(vErr, ErrTimeout) && !errors.Is(vErr, ErrCorrupt):
			t.Fatalf("%s call %d: virtual err %v is not ErrTimeout or ErrCorrupt", name, i, vErr)
		case r.intact > intact && n != 1, r.intact == intact && n != 0:
			t.Fatalf("%s call %d: executed %d times, request arrived intact %d times", name, i, n, r.intact-intact)
		}
		switch {
		case errors.Is(vErr, ErrTimeout):
			tally.timeouts++
		case errors.Is(vErr, ErrCorrupt):
			tally.corrupts++
		}
		if r.intact-intact > 1 {
			tally.reanswered++
		}
		trail[i] = callTrail{attempts, fmt.Sprint(waits), n}
	}
	return trail
}

// TestDeliveryMatchesTransport is the differential test of the one
// delivery protocol's two drivers. It takes the cross-machine calls of a
// scenario's trace and sends them with sendCalls, which holds the virtual
// clock and the real transport to each other call by call, for roll seeds
// 1 to 5 at drop = corrupt = 0, 0.05 and 0.3. The rolls must reach every
// path: timeouts, corruptions and dedup re-answers.
func TestDeliveryMatchesTransport(t *testing.T) {
	t.Parallel()
	var tally wireTally
	for _, sc := range differentialScenarios() {
		calls := scenarioCalls(t, sc.app, sc.scenario)
		for seed := int64(1); seed <= 5; seed++ {
			for _, p := range []float64{0, 0.05, 0.3} {
				sendCalls(t, calls, seed, p, fmt.Sprintf("%s seed %d rates %v", sc.scenario, seed, p), &tally)
			}
		}
	}
	if tally.timeouts == 0 || tally.corrupts == 0 || tally.reanswered == 0 {
		t.Fatalf("the rolls never reached every path: %d timeouts, %d corruptions, %d calls answered again",
			tally.timeouts, tally.corrupts, tally.reanswered)
	}
	t.Logf("%d calls gave up timed out, %d corrupt; %d were answered again from the dedup cache",
		tally.timeouts, tally.corrupts, tally.reanswered)
}

// TestChaosTransportReproducibleFromSeed: the wire's trail under faults is
// a function of the roll seed. The same seed sent twice gives the same
// attempts, waits and server executions call by call, and another seed
// another trail.
func TestChaosTransportReproducibleFromSeed(t *testing.T) {
	t.Parallel()
	var tally wireTally
	for _, sc := range differentialScenarios() {
		calls := scenarioCalls(t, sc.app, sc.scenario)
		first := sendCalls(t, calls, 1, 0.3, sc.scenario+" seed 1", &tally)
		if again := sendCalls(t, calls, 1, 0.3, sc.scenario+" seed 1 again", &tally); !reflect.DeepEqual(again, first) {
			t.Fatalf("%s: the same roll seed sent twice left different trails:\n%v\n%v", sc.scenario, first, again)
		}
		if other := sendCalls(t, calls, 2, 0.3, sc.scenario+" seed 2", &tally); reflect.DeepEqual(other, first) {
			t.Fatalf("%s: roll seeds 1 and 2 left the same trail %v", sc.scenario, first)
		}
	}
}
