package jobqueue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

var errInjected = errors.New("injected fault")

// memJournal is a journal file in memory. An armed fault fails the append
// numbered failAt, counting from 1: fault 'w' fails its Write, which then
// writes nothing, and fault 's' fails the Sync after its Write, which
// leaves the whole record in the file.
type memJournal struct {
	buf     []byte
	fault   byte
	failAt  int
	appends int
}

func (m *memJournal) Write(p []byte) (int, error) {
	m.appends++
	if m.fault == 'w' && m.appends == m.failAt {
		return 0, errInjected
	}
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memJournal) Sync() error {
	if m.fault == 's' && m.appends == m.failAt {
		return errInjected
	}
	return nil
}

func (m *memJournal) Truncate(size int64) error {
	m.buf = m.buf[:size]
	return nil
}

func (m *memJournal) Close() error { return nil }

// failNext arms fault for the next append.
func (m *memJournal) failNext(fault byte) {
	m.fault, m.failAt = fault, m.appends+1
}

// openMem opens a queue on an in-memory copy of the journal raw, as a
// process restarted on that file does.
func openMem(raw []byte, opts ...Option) (*Queue, *memJournal, error) {
	m := &memJournal{buf: bytes.Clone(raw)}
	q, err := load(bytes.Clone(raw), m, opts...)
	return q, m, err
}

// The explorer enumerates every sequence of queue steps up to exDepth and
// checks the queue's promises in every state it reaches. A state is its
// journal: two sequences that leave the same bytes behind are explored
// once, which is sound because the queue in memory is a fold of its
// journal (checked in every state).
const (
	exJobs     = 3
	exWorkers  = 2
	exDepth    = 7
	exAttempts = 2 // a retry budget, so that dead-lettering is reachable
)

// exStep is one step: 's' submits a job, 'l' leases, 'f', 'x' and 'r'
// finish, fail and requeue the running job id, and 'c' crashes the process
// and reopens its journal.
type exStep struct {
	op byte
	id string
}

func (s exStep) String() string { return string(s.op) + s.id }

type explorer struct {
	t           *testing.T
	seen        map[string]bool // the journal of every state reached
	transitions int
}

func TestQueueExplorer(t *testing.T) {
	t.Parallel()
	x := &explorer{t: t, seen: map[string]bool{"": true}}
	frontier := [][]exStep{nil}
	for len(frontier) > 0 {
		path := frontier[0]
		frontier = frontier[1:]
		for _, s := range x.enabled(path) {
			j := x.step(path, s)
			if x.seen[j] {
				continue
			}
			x.seen[j] = true
			if len(path)+1 < exDepth {
				frontier = append(frontier, append(path[:len(path):len(path)], s))
			}
		}
	}
	t.Logf("explored %d states over %d transitions: %d jobs, %d workers, depth %d",
		len(x.seen), x.transitions, exJobs, exWorkers, exDepth)
}

// rebuild runs path from an empty journal and returns the queue it leaves.
func (x *explorer) rebuild(path []exStep) (*Queue, *memJournal) {
	x.t.Helper()
	q, m, err := openMem(nil, WithMaxAttempts(exAttempts))
	if err != nil {
		x.t.Fatal(err)
	}
	for i, s := range path {
		if s.op == 'c' {
			if q, m, err = openMem(m.buf, WithMaxAttempts(exAttempts)); err != nil {
				x.t.Fatalf("%v: reopening: %v", path[:i+1], err)
			}
			continue
		}
		if _, err := take(q, s); err != nil {
			x.t.Fatalf("%v: %v", path[:i+1], err)
		}
	}
	return q, m
}

// enabled lists the steps possible after path.
func (x *explorer) enabled(path []exStep) []exStep {
	q, _ := x.rebuild(path)
	steps := []exStep{{op: 'c'}}
	if len(q.order) < exJobs {
		steps = append(steps, exStep{op: 's'})
	}
	var running []string
	for _, j := range q.order {
		if j.State == StateRunning {
			running = append(running, j.ID)
		}
	}
	if len(running) < exWorkers {
		steps = append(steps, exStep{op: 'l'})
	}
	for _, id := range running {
		steps = append(steps, exStep{'f', id}, exStep{'x', id}, exStep{'r', id})
	}
	return steps
}

// take takes one step other than a crash, settling with the job's current
// attempt.
func take(q *Queue, s exStep) (*Job, error) {
	switch s.op {
	case 's':
		return q.Enqueue(fmt.Appendf(nil, `{"n":%d}`, len(q.order)+1))
	case 'l':
		return q.TryLease()
	case 'f':
		a := q.jobs[s.id].Attempt
		return nil, q.Finish(s.id, a, exResult(s.id, a))
	case 'x':
		return nil, q.Fail(s.id, q.jobs[s.id].Attempt, "boom")
	case 'r':
		return nil, q.Requeue(s.id, q.jobs[s.id].Attempt)
	}
	panic("unknown step " + s.String())
}

// exResult is an indented result, so that Finish has to compact it.
func exResult(id string, attempt int) []byte {
	return fmt.Appendf(nil, "{\n  \"job\": %q,\n  \"attempt\": %d\n}\n", id, attempt)
}

// step takes s after path, checks every promise the step touches, and
// returns the journal of the state it reaches.
func (x *explorer) step(path []exStep, s exStep) string {
	x.t.Helper()
	x.transitions++
	at := fmt.Sprint(append(path[:len(path):len(path)], s))
	q, m := x.rebuild(path)
	prev := jobsOf(q)
	before := bytes.Clone(m.buf)
	if s.op == 'c' {
		r := x.crash(at, before)
		x.checkTransition(at, prev, r)
		x.checkState(at, r)
		return string(r.f.(*memJournal).buf)
	}

	want := referenceLease(q)
	got, err := take(q, s)
	if err != nil {
		x.t.Fatalf("%s: %v", at, err)
	}
	switch s.op {
	case 'l':
		gotID := ""
		if got != nil {
			gotID = got.ID
			if issued := maxAttempt(before, got.ID); got.Attempt <= issued {
				x.t.Fatalf("%s: leased %s at attempt %d, already issued up to %d", at, got.ID, got.Attempt, issued)
			}
		}
		if gotID != want {
			x.t.Fatalf("%s: leased %q, the linear walk leases %q", at, gotID, want)
		}
	case 'f':
		// Acknowledged: done with its bytes, and its record is on file.
		compact := compactJSON(exResult(s.id, prev[s.id].Attempt))
		if j := q.jobs[s.id]; j.State != StateDone || !bytes.Equal(j.Result, compact) {
			x.t.Fatalf("%s: finished job reads %s %s", at, j.State, j.Result)
		}
		if !bytes.HasSuffix(m.buf, fmt.Appendf(nil, `"result":%s}`+"\n", compact)) {
			x.t.Fatalf("%s: Finish acknowledged before its record was on file: %s", at, m.buf)
		}
	}
	x.checkTransition(at, prev, q)
	x.checkState(at, q)
	after := bytes.Clone(m.buf)
	if len(after) > len(before) {
		x.checkFaults(path, s, at, before, after)
	}
	return string(after)
}

// checkFaults takes s again with its append failing, at the Write and then
// at the Sync. The step must fail, the queue must then refuse every
// mutation, and a crash after that must leave the queue a crash before the
// step (the Write failed, nothing is on file) or after it (the Sync
// failed, the record is on file) would have left.
func (x *explorer) checkFaults(path []exStep, s exStep, at string, before, after []byte) {
	x.t.Helper()
	for _, fault := range []byte{'w', 's'} {
		at := fmt.Sprintf("%s with its %c failing", at, fault)
		q, m := x.rebuild(path)
		m.failNext(fault)
		if _, err := take(q, s); !errors.Is(err, errInjected) {
			x.t.Fatalf("%s: step returned %v", at, err)
		}
		x.checkStopped(at, q, m)
		want := before
		if fault == 's' {
			want = after
		}
		x.sameQueue(at, x.open(at, m.buf), x.open(at, want))
	}
}

// checkStopped: a queue whose append failed refuses every mutation and
// leaves its journal as the failure left it.
func (x *explorer) checkStopped(at string, q *Queue, m *memJournal) {
	x.t.Helper()
	if q.Err() == nil {
		x.t.Fatalf("%s: Err is nil after a failed append", at)
	}
	held := bytes.Clone(m.buf)
	m.fault = 0
	var errs []error
	_, err := q.Enqueue([]byte(`{}`))
	errs = append(errs, err)
	_, err = q.TryLease()
	errs = append(errs, err)
	for _, j := range q.order {
		errs = append(errs, q.Finish(j.ID, j.Attempt, []byte(`1`)), q.Fail(j.ID, j.Attempt, "x"), q.Requeue(j.ID, j.Attempt))
	}
	for i, err := range errs {
		if !errors.Is(err, errInjected) {
			x.t.Fatalf("%s: mutation %d after a failed append returned %v, not the failure", at, i, err)
		}
	}
	if !bytes.Equal(m.buf, held) {
		x.t.Fatalf("%s: a stopped queue appended %q", at, m.buf[len(held):])
	}
}

// crash reopens the journal raw and checks recovery: nothing is left
// running; a second open finds the same queue and appends nothing; the
// journal torn anywhere in its last record opens as it would without that
// record; and an append failing during recovery leaves a journal that
// opens as if it had not.
func (x *explorer) crash(at string, raw []byte) *Queue {
	x.t.Helper()
	q := x.open(at, raw)
	for _, j := range q.order {
		if j.State == StateRunning {
			x.t.Fatalf("%s: %s still running after recovery", at, j.ID)
		}
	}
	x.sameQueue(at+" reopened twice", x.open(at, q.f.(*memJournal).buf), q)

	if len(raw) > 0 {
		last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
		base := x.open(at, raw[:last])
		for k := last + 1; k < len(raw); k++ {
			x.sameQueue(fmt.Sprintf("%s torn at byte %d", at, k), x.open(at, raw[:k]), base)
		}
	}

	recoveries := q.f.(*memJournal).appends
	for i := 1; i <= recoveries; i++ {
		for _, fault := range []byte{'w', 's'} {
			at := fmt.Sprintf("%s with recovery append %d failing at its %c", at, i, fault)
			m := &memJournal{buf: bytes.Clone(raw), fault: fault, failAt: i}
			if _, err := load(bytes.Clone(raw), m, WithMaxAttempts(exAttempts)); !errors.Is(err, errInjected) {
				x.t.Fatalf("%s: Open returned %v", at, err)
			}
			x.sameQueue(at, x.open(at, m.buf), q)
		}
	}
	return q
}

func (x *explorer) open(at string, raw []byte) *Queue {
	x.t.Helper()
	q, _, err := openMem(raw, WithMaxAttempts(exAttempts))
	if err != nil {
		x.t.Fatalf("%s: open: %v\njournal:\n%s", at, err, raw)
	}
	return q
}

// sameQueue: two queues hold the same jobs and the same journal.
func (x *explorer) sameQueue(at string, got, want *Queue) {
	x.t.Helper()
	if g, w := dump(got), dump(want); g != w {
		x.t.Fatalf("%s: queue\n%s\nwant\n%s", at, g, w)
	}
	if g, w := got.f.(*memJournal).buf, want.f.(*memJournal).buf; !bytes.Equal(g, w) {
		x.t.Fatalf("%s: journal\n%s\nwant\n%s", at, g, w)
	}
}

// checkState checks what holds in every state: the queue serves, no job
// below the lease cursor is pending, memory is the fold of the journal,
// and no settle with a stale attempt token gets through.
func (x *explorer) checkState(at string, q *Queue) {
	x.t.Helper()
	if err := q.Err(); err != nil {
		x.t.Fatalf("%s: %v", at, err)
	}
	for _, j := range q.order[:q.next] {
		if j.State == StatePending {
			x.t.Fatalf("%s: %s is pending below the cursor %d", at, j.ID, q.next)
		}
	}
	m := q.f.(*memJournal)
	folded := &Queue{jobs: make(map[string]*Job)}
	if err := folded.replay(m.buf); err != nil {
		x.t.Fatalf("%s: %v", at, err)
	}
	if g, w := dump(folded), dump(q); g != w {
		x.t.Fatalf("%s: the journal folds to\n%s\nmemory holds\n%s", at, g, w)
	}
	held := len(m.buf)
	for _, j := range q.order {
		for _, a := range []int{j.Attempt - 1, j.Attempt + 1} {
			if q.Finish(j.ID, a, []byte(`1`)) == nil || q.Fail(j.ID, a, "x") == nil || q.Requeue(j.ID, a) == nil {
				x.t.Fatalf("%s: %s (attempt %d) settled with attempt %d", at, j.ID, j.Attempt, a)
			}
		}
		if j.State != StateRunning && q.Finish(j.ID, j.Attempt, []byte(`1`)) == nil {
			x.t.Fatalf("%s: %s settled while %s", at, j.ID, j.State)
		}
	}
	if len(m.buf) != held {
		x.t.Fatalf("%s: a refused settle appended %q", at, m.buf[held:])
	}
}

// checkTransition: done, failed and dead are terminal, with their bytes,
// across every step including a crash; and no attempt token goes back.
func (x *explorer) checkTransition(at string, prev map[string]Job, q *Queue) {
	x.t.Helper()
	for id, p := range prev {
		j := q.jobs[id]
		if j == nil {
			x.t.Fatalf("%s: %s lost", at, id)
		}
		if j.Attempt < p.Attempt {
			x.t.Fatalf("%s: %s went back from attempt %d to %d", at, id, p.Attempt, j.Attempt)
		}
		switch p.State {
		case StateDone, StateFailed, StateDead:
			if j.State != p.State || j.Attempt != p.Attempt || !bytes.Equal(j.Result, p.Result) || j.Error != p.Error {
				x.t.Fatalf("%s: %s was %s %s %q, is %s %s %q", at, id, p.State, p.Result, p.Error, j.State, j.Result, j.Error)
			}
		}
	}
}

// referenceLease is the lease rule as a linear walk: the first pending job
// in enqueue order.
func referenceLease(q *Queue) string {
	for _, j := range q.order {
		if j.State == StatePending {
			return j.ID
		}
	}
	return ""
}

// maxAttempt is the highest attempt the journal raw records for id.
func maxAttempt(raw []byte, id string) int {
	issued := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec record
		if json.Unmarshal([]byte(line), &rec) == nil && rec.ID == id {
			issued = max(issued, rec.Attempt)
		}
	}
	return issued
}

func jobsOf(q *Queue) map[string]Job {
	jobs := make(map[string]Job, len(q.jobs))
	for id, j := range q.jobs {
		jobs[id] = *j.snapshot()
	}
	return jobs
}

func dump(q *Queue) string {
	var b strings.Builder
	for _, j := range q.order {
		fmt.Fprintf(&b, "%s %s %d %s %s %q\n", j.ID, j.State, j.Attempt, j.Payload, j.Result, j.Error)
	}
	return b.String()
}

func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
