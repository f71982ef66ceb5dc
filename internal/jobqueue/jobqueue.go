// Package jobqueue is a crash-safe on-disk job queue: every state
// transition is one JSON line appended to a journal and fsynced before the
// caller proceeds, so a job the queue has acknowledged survives a kill -9
// at any instant. Opening the journal replays it back into memory,
// cutting off a torn trailing line (a record the crash interrupted
// mid-write was never acknowledged, so dropping it loses nothing) and
// requeuing jobs that were running when the process died.
//
// Leasing is from a cursor: the queue keeps its jobs in enqueue order and
// the index below which none is pending, so a lease costs the same with
// ten thousand finished jobs behind it as with none. The oldest pending
// job by enqueue position always wins, a requeued one included.
//
// A finished job's result lives in the journal only: memory keeps the
// offset and length of the compact result inside the job's done line, and
// Result reads those bytes back with ReadAt, so the queue's heap does not
// grow with what its jobs returned. A settled job keeps no payload either,
// and Stats reads counts the transitions keep, not a walk over the jobs.
//
// A queue whose journal append fails stops: every later mutation returns
// that error, so only the journal's last record can be in doubt, which is
// the case Open already handles. Results already acknowledged still read.
package jobqueue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// State is a job's lifecycle position.
type State string

const (
	StatePending State = "pending"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	// StateDead marks a job dead-lettered: requeued so often — crash
	// recovery or drain, a poison payload killing its worker each time —
	// that the queue refuses to lease it again. Terminal like failed, but
	// distinguishable: failed jobs ran to a verdict, dead jobs never did.
	StateDead State = "dead"
)

// Job is one queued unit of work.
type Job struct {
	ID string `json:"id"`
	// Payload is the caller's request, opaque to the queue. A settled job
	// (done, failed or dead) no longer has one.
	Payload json.RawMessage `json:"payload"`
	State   State           `json:"state"`
	// Attempt counts leases: 1 on the first lease, bumped by every
	// requeue. Finish and Fail must present the attempt their lease
	// returned; a stale worker whose job was requeued cannot overwrite the
	// retry's outcome.
	Attempt int `json:"attempt"`
	// Error holds the failure message once failed.
	Error string `json:"error,omitempty"`
	// pos is the job's index in its queue's enqueue order.
	pos int
	// resOff and resLen locate a done job's compact result in the journal;
	// Queue.Result reads it from there.
	resOff int64
	resLen int
}

// record is one journal line.
type record struct {
	Op      string `json:"op"` // enqueue | lease | requeue | done | fail | dead
	ID      string `json:"id"`
	Attempt int    `json:"attempt,omitempty"`
	Payload view   `json:"payload,omitempty"`
	Result  view   `json:"result,omitempty"`
	Error   string `json:"error,omitempty"`
}

// view is raw JSON, encoded as json.RawMessage is (the encoder checks and
// compacts it) but decoded as a view into the decoder's input rather than a
// copy: replay measures a result and copies only the payloads of jobs that
// are still live when the journal ends.
type view []byte

func (v view) MarshalJSON() ([]byte, error) { return json.RawMessage(v).MarshalJSON() }

func (v *view) UnmarshalJSON(b []byte) error {
	*v = b
	return nil
}

// resultKey introduces a done record's result. The encoder writes a done
// record as {"op":"done","id":…,"attempt":…,"result":…}: the result is the
// last field, and the first resultKey in the line is its key, since what
// comes before it is two strings and a number, and a string cannot hold an
// unescaped quote.
var resultKey = []byte(`"result":`)

// resultSpan locates the result in a done record's line: where it starts
// and how long it is, or a negative length if the line has no result key.
func resultSpan(line []byte) (start, n int) {
	i := bytes.Index(line, resultKey)
	if i < 0 {
		return 0, -1
	}
	start = i + len(resultKey)
	return start, bytes.LastIndexByte(line, '}') - start
}

// Counts summarizes the queue's population by state.
type Counts struct {
	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Dead    int `json:"dead"`
}

// of is the count of jobs in state s.
func (c *Counts) of(s State) *int {
	switch s {
	case StatePending:
		return &c.Pending
	case StateRunning:
		return &c.Running
	case StateDone:
		return &c.Done
	case StateFailed:
		return &c.Failed
	case StateDead:
		return &c.Dead
	}
	panic("jobqueue: unknown state " + string(s))
}

// journalFile is the file a queue appends its records to and reads done
// jobs' results back from: an *os.File, or in tests one whose writes can
// be made to fail.
type journalFile interface {
	Write(p []byte) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

var errClosed = errors.New("jobqueue: queue is closed")

// Queue is the journal-backed queue. All methods are safe for concurrent
// use.
type Queue struct {
	mu sync.Mutex
	f  journalFile
	// size is the journal's length: where the next appended line starts.
	size  int64
	jobs  map[string]*Job
	order []*Job // enqueue order; the oldest pending job leases first
	// next is where a lease starts looking: no job in order[:next] is
	// pending. A lease moves it past the jobs it skips; a job going back
	// to pending lowers it to that job's position.
	next int
	seq  int // highest numeric id issued
	// counts is the population by state, kept as each job moves.
	counts Counts
	// err is why the queue refuses mutations: the first failed append or,
	// after Close, errClosed.
	err error
	// maxAttempts dead-letters a job instead of requeuing it once the next
	// lease would exceed this count; 0 means retry forever.
	maxAttempts int

	// wake is pulsed whenever a job becomes leasable, so blocked workers
	// re-check without polling.
	wake chan struct{}
}

// Option tweaks a Queue at Open time.
type Option func(*Queue)

// WithMaxAttempts bounds how often one job may be leased. A requeue —
// crash recovery or drain — that would push the job past n attempts
// dead-letters it instead, so a poison payload cannot crash-loop the
// worker pool forever. n <= 0 keeps the default of retrying forever.
func WithMaxAttempts(n int) Option {
	return func(q *Queue) {
		if n > 0 {
			q.maxAttempts = n
		}
	}
}

// Open replays the journal at path (creating it if absent) and returns
// the live queue. Jobs that were running when the journal was last
// written go back to pending — their worker is gone — unless their
// attempts are exhausted, in which case they are dead-lettered.
func Open(path string, opts ...Option) (*Queue, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobqueue: %w", err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobqueue: reading journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobqueue: opening journal: %w", err)
	}
	q, err := load(raw, f, opts...)
	if err != nil {
		f.Close()
		return nil, err
	}
	return q, nil
}

// load is Open on a journal read into raw and opened for appending as f.
func load(raw []byte, f journalFile, opts ...Option) (*Queue, error) {
	q := &Queue{jobs: make(map[string]*Job), f: f, wake: make(chan struct{}, 1)}
	for _, o := range opts {
		o(q)
	}
	// A last line without its newline is a torn tail: the append the crash
	// interrupted was never acknowledged. Cut it off, so that the next
	// append starts a line of its own.
	whole := bytes.LastIndexByte(raw, '\n') + 1
	if err := q.replay(raw[:whole]); err != nil {
		return nil, err
	}
	if whole < len(raw) {
		if err := f.Truncate(int64(whole)); err != nil {
			return nil, fmt.Errorf("jobqueue: cutting off a torn tail: %w", err)
		}
	}
	q.size = int64(whole)
	// Crash recovery: a job leased but never finished was running when the
	// process died. Requeue it durably so the journal states the truth.
	for _, j := range q.order {
		if j.State != StateRunning {
			continue
		}
		if err := q.requeueOrDeadLetter(j); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// requeueOrDeadLetter durably moves a running job back to pending, or to
// dead once another lease would exceed maxAttempts. Callers hold q.mu (or
// own the queue exclusively, as Open does). The attempt token advances on
// both lease and requeue, so a running job's lease count — the number the
// budget is spent in — is (Attempt+1)/2.
func (q *Queue) requeueOrDeadLetter(j *Job) error {
	if leases := (j.Attempt + 1) / 2; q.maxAttempts > 0 && leases >= q.maxAttempts {
		msg := fmt.Sprintf("dead-lettered after %d attempt(s): retry budget %d exhausted", leases, q.maxAttempts)
		if _, _, err := q.append(record{Op: "dead", ID: j.ID, Attempt: j.Attempt, Error: msg}); err != nil {
			return err
		}
		q.settled(j, StateDead)
		j.Error = msg
		return nil
	}
	if _, _, err := q.append(record{Op: "requeue", ID: j.ID, Attempt: j.Attempt + 1}); err != nil {
		return err
	}
	q.toPending(j, j.Attempt+1)
	q.notify()
	return nil
}

// toPending moves j back to pending at attempt and lowers the lease
// cursor to it.
func (q *Queue) toPending(j *Job, attempt int) {
	q.move(j, StatePending)
	j.Attempt = attempt
	q.next = min(q.next, j.pos)
}

// move puts j in state to and keeps the counts.
func (q *Queue) move(j *Job, to State) {
	*q.counts.of(j.State)--
	*q.counts.of(to)++
	j.State = to
}

// settled moves j to a terminal state, where it needs its payload no more.
func (q *Queue) settled(j *Job, to State) {
	q.move(j, to)
	j.Payload = nil
}

// replay folds complete journal lines into memory. Every line in raw
// ends in a newline, so a malformed one is corruption and fails the open.
// raw is the journal from its first byte, so a line's place in raw is its
// offset in the file.
func (q *Queue) replay(raw []byte) error {
	for n, at := 1, 0; at < len(raw); n++ {
		end := at + bytes.IndexByte(raw[at:], '\n')
		line := raw[at:end]
		off := int64(at)
		at = end + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("jobqueue: corrupt journal line %d: %w", n, err)
		}
		if err := q.apply(rec, off, line); err != nil {
			return fmt.Errorf("jobqueue: journal line %d: %w", n, err)
		}
	}
	// A live job's payload is still a view into raw: copy it, so that the
	// queue does not keep the whole journal alive.
	for _, j := range q.order {
		if j.State == StatePending || j.State == StateRunning {
			j.Payload = bytes.Clone(j.Payload)
		}
	}
	return nil
}

// apply folds one record, read from the journal line at offset off, into
// the in-memory state.
func (q *Queue) apply(rec record, off int64, line []byte) error {
	switch rec.Op {
	case "enqueue":
		if _, dup := q.jobs[rec.ID]; dup {
			return fmt.Errorf("duplicate enqueue of %s", rec.ID)
		}
		q.add(&Job{ID: rec.ID, Payload: json.RawMessage(rec.Payload), State: StatePending})
		if digits, ok := strings.CutPrefix(rec.ID, "j"); ok {
			if n, err := strconv.Atoi(digits); err == nil && n > q.seq {
				q.seq = n
			}
		}
	case "lease":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("lease of unknown job %s", rec.ID)
		}
		q.move(j, StateRunning)
		j.Attempt = rec.Attempt
	case "requeue":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("requeue of unknown job %s", rec.ID)
		}
		q.toPending(j, rec.Attempt)
	case "done":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("done for unknown job %s", rec.ID)
		}
		// rec.Result is a view of the result in line: measured here, read
		// from the file when served.
		start, n := resultSpan(line)
		if n != len(rec.Result) || !bytes.Equal(line[start:start+n], rec.Result) {
			return fmt.Errorf("done for %s: result is not the record's last field", rec.ID)
		}
		q.settled(j, StateDone)
		j.resOff, j.resLen = off+int64(start), n
	case "fail":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("fail for unknown job %s", rec.ID)
		}
		q.settled(j, StateFailed)
		j.Error = rec.Error
	case "dead":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("dead-letter for unknown job %s", rec.ID)
		}
		q.settled(j, StateDead)
		j.Error = rec.Error
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// add puts a new job at the end of the enqueue order.
func (q *Queue) add(j *Job) {
	j.pos = len(q.order)
	q.jobs[j.ID] = j
	q.order = append(q.order, j)
	q.counts.Pending++
}

// append writes one record and fsyncs before returning the offset its
// line starts at and the line. Acknowledgment strictly follows
// durability: if this returns nil, the record survives any crash. A failed
// write or sync may have left the record in the file all the same, so it
// stops the queue: nothing appended after it could be told apart from it.
func (q *Queue) append(rec record) (off int64, line []byte, err error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return 0, nil, fmt.Errorf("jobqueue: encoding record: %w", err)
	}
	b = append(b, '\n')
	if _, err := q.f.Write(b); err != nil {
		q.err = fmt.Errorf("jobqueue: appending journal: %w", err)
		return 0, nil, q.err
	}
	if err := q.f.Sync(); err != nil {
		q.err = fmt.Errorf("jobqueue: syncing journal: %w", err)
		return 0, nil, q.err
	}
	off = q.size
	q.size += int64(len(b))
	return off, b, nil
}

// notify pulses the wake channel without blocking.
func (q *Queue) notify() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Enqueue adds a job and returns it once — and only once — the journal
// record is on disk.
func (q *Queue) Enqueue(payload []byte) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return nil, q.err
	}
	q.seq++
	j := &Job{ID: fmt.Sprintf("j%08d", q.seq), Payload: append([]byte(nil), payload...), State: StatePending}
	if _, _, err := q.append(record{Op: "enqueue", ID: j.ID, Payload: view(j.Payload)}); err != nil {
		q.seq--
		return nil, err
	}
	q.add(j)
	q.notify()
	return j.snapshot(), nil
}

// TryLease claims the oldest pending job, durably marking it running.
// Returns nil when nothing is pending.
func (q *Queue) TryLease() (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return nil, q.err
	}
	for ; q.next < len(q.order); q.next++ {
		j := q.order[q.next]
		if j.State != StatePending {
			continue
		}
		if _, _, err := q.append(record{Op: "lease", ID: j.ID, Attempt: j.Attempt + 1}); err != nil {
			return nil, err
		}
		q.move(j, StateRunning)
		j.Attempt++
		q.next++
		return j.snapshot(), nil
	}
	return nil, nil
}

// Wake returns the channel pulsed when a job becomes leasable. Workers
// select on it alongside their context instead of polling.
func (q *Queue) Wake() <-chan struct{} { return q.wake }

// Finish durably records a successful result, which must be JSON; the
// journal holds it compacted, and Result reads it back from there. The
// attempt token must match the lease: a worker whose job was requeued out
// from under it (its process was presumed dead) gets an error instead of
// clobbering the retry.
func (q *Queue) Finish(id string, attempt int, result []byte) error {
	if len(result) == 0 {
		// The encoder would leave an empty result out of the record.
		return fmt.Errorf("jobqueue: job %s: empty result", id)
	}
	return q.settle(id, attempt, record{Op: "done", ID: id, Result: view(result)}, StateDone, func(j *Job, off int64, line []byte) {
		start, n := resultSpan(line)
		j.resOff, j.resLen = off+int64(start), n
	})
}

// Fail durably records a failure. Same attempt-token rule as Finish.
func (q *Queue) Fail(id string, attempt int, msg string) error {
	return q.settle(id, attempt, record{Op: "fail", ID: id, Error: msg}, StateFailed, func(j *Job, _ int64, _ []byte) {
		j.Error = msg
	})
}

// settle appends rec for a running job and moves it to state to; fill
// records the outcome from the line written at offset off.
func (q *Queue) settle(id string, attempt int, rec record, to State, fill func(j *Job, off int64, line []byte)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	j := q.jobs[id]
	if j == nil {
		return fmt.Errorf("jobqueue: unknown job %s", id)
	}
	if j.State != StateRunning {
		return fmt.Errorf("jobqueue: job %s is %s, not running", id, j.State)
	}
	if j.Attempt != attempt {
		return fmt.Errorf("jobqueue: job %s lease is stale (attempt %d, current %d)", id, attempt, j.Attempt)
	}
	rec.Attempt = attempt
	off, line, err := q.append(rec)
	if err != nil {
		return err
	}
	q.settled(j, to)
	fill(j, off, line)
	return nil
}

// Requeue durably returns a running job to pending (graceful shutdown:
// the worker is draining, not dead). The attempt token must match. A job
// whose retry budget is exhausted is dead-lettered instead of requeued;
// Get tells the two outcomes apart.
func (q *Queue) Requeue(id string, attempt int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	j := q.jobs[id]
	if j == nil {
		return fmt.Errorf("jobqueue: unknown job %s", id)
	}
	if j.State != StateRunning || j.Attempt != attempt {
		return fmt.Errorf("jobqueue: job %s not running at attempt %d", id, attempt)
	}
	return q.requeueOrDeadLetter(j)
}

// Get returns a snapshot of one job.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return j.snapshot(), true
}

// Result returns job id's state and, once the job is done, appends its
// result to dst, compact as the journal holds it. A job in any other state
// leaves dst as it is, and an unknown id has the empty state. It reads
// the journal, so it serves acknowledged results after a failed append
// stopped the queue, but not after Close.
func (q *Queue) Result(id string, dst []byte) ([]byte, State, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return dst, "", nil
	}
	if j.State != StateDone {
		return dst, j.State, nil
	}
	if q.f == nil {
		return dst, j.State, errClosed
	}
	n := len(dst)
	dst = slices.Grow(dst, j.resLen)[:n+j.resLen]
	if _, err := q.f.ReadAt(dst[n:], j.resOff); err != nil {
		return dst[:n], j.State, fmt.Errorf("jobqueue: reading the result of %s: %w", id, err)
	}
	return dst, j.State, nil
}

// Stats counts jobs by state.
func (q *Queue) Stats() Counts {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.counts
}

// Err reports why the queue refuses mutations: the journal append that
// failed, or that the queue is closed. It is nil while the queue serves.
func (q *Queue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Close flushes and closes the journal. Further mutations fail.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.f == nil {
		return nil
	}
	if q.err == nil {
		q.err = errClosed
	}
	err := q.f.Close()
	q.f = nil
	return err
}

func (j *Job) snapshot() *Job {
	c := *j
	c.Payload = append(json.RawMessage(nil), j.Payload...)
	return &c
}
