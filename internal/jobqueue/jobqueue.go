// Package jobqueue is a crash-safe on-disk job queue: every state
// transition is one JSON line appended to a journal and fsynced before the
// caller proceeds, so a job the queue has acknowledged survives a kill -9
// at any instant. Opening the journal replays it back into memory,
// repairing a torn trailing line (a record the crash interrupted mid-write
// was never acknowledged, so dropping it loses nothing) and requeuing jobs
// that were running when the process died.
package jobqueue

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
	// Payload is the caller's request, opaque to the queue.
	Payload json.RawMessage `json:"payload"`
	State   State           `json:"state"`
	// Attempt counts leases: 1 on the first lease, bumped by every
	// requeue. Finish and Fail must present the attempt their lease
	// returned; a stale worker whose job was requeued cannot overwrite the
	// retry's outcome.
	Attempt int `json:"attempt"`
	// Result holds the worker's output once done.
	Result json.RawMessage `json:"result,omitempty"`
	// Error holds the failure message once failed.
	Error string `json:"error,omitempty"`
}

// record is one journal line.
type record struct {
	Op      string          `json:"op"` // enqueue | lease | requeue | done | fail | dead
	ID      string          `json:"id"`
	Attempt int             `json:"attempt,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// Counts summarizes the queue's population by state.
type Counts struct {
	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Dead    int `json:"dead"`
}

// Queue is the journal-backed queue. All methods are safe for concurrent
// use.
type Queue struct {
	mu     sync.Mutex
	f      *os.File
	jobs   map[string]*Job
	order  []string // enqueue order; pending jobs lease FIFO
	seq    int      // highest numeric id issued
	closed bool
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
	q := &Queue{jobs: make(map[string]*Job), wake: make(chan struct{}, 1)}
	for _, o := range opts {
		o(q)
	}
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobqueue: reading journal: %w", err)
	}
	if err := q.replay(raw); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobqueue: opening journal: %w", err)
	}
	q.f = f
	// Crash recovery: a job leased but never finished was running when the
	// process died. Requeue it durably so the journal states the truth.
	for _, id := range q.order {
		j := q.jobs[id]
		if j.State != StateRunning {
			continue
		}
		if err := q.requeueOrDeadLetter(j); err != nil {
			f.Close()
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
		if err := q.append(record{Op: "dead", ID: j.ID, Attempt: j.Attempt, Error: msg}); err != nil {
			return err
		}
		j.State = StateDead
		j.Error = msg
		return nil
	}
	if err := q.append(record{Op: "requeue", ID: j.ID, Attempt: j.Attempt + 1}); err != nil {
		return err
	}
	j.State = StatePending
	j.Attempt++
	q.notify()
	return nil
}

// replay folds journal lines into memory. A torn trailing line — no final
// newline, or malformed JSON on the last line — is discarded: its append
// never completed, so its caller never got an acknowledgment. A malformed
// line in the middle of the journal is corruption and fails the open.
func (q *Queue) replay(raw []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("jobqueue: scanning journal: %w", err)
	}
	tornTail := len(raw) > 0 && raw[len(raw)-1] != '\n'
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 && tornTail {
				break // interrupted final append; never acknowledged
			}
			return fmt.Errorf("jobqueue: corrupt journal line %d: %w", i+1, err)
		}
		if err := q.apply(rec); err != nil {
			return fmt.Errorf("jobqueue: journal line %d: %w", i+1, err)
		}
	}
	return nil
}

// apply folds one record into the in-memory state.
func (q *Queue) apply(rec record) error {
	switch rec.Op {
	case "enqueue":
		if _, dup := q.jobs[rec.ID]; dup {
			return fmt.Errorf("duplicate enqueue of %s", rec.ID)
		}
		q.jobs[rec.ID] = &Job{ID: rec.ID, Payload: rec.Payload, State: StatePending}
		q.order = append(q.order, rec.ID)
		var n int
		if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n > q.seq {
			q.seq = n
		}
	case "lease":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("lease of unknown job %s", rec.ID)
		}
		j.State = StateRunning
		j.Attempt = rec.Attempt
	case "requeue":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("requeue of unknown job %s", rec.ID)
		}
		j.State = StatePending
		j.Attempt = rec.Attempt
	case "done":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("done for unknown job %s", rec.ID)
		}
		j.State = StateDone
		j.Result = rec.Result
	case "fail":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("fail for unknown job %s", rec.ID)
		}
		j.State = StateFailed
		j.Error = rec.Error
	case "dead":
		j := q.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("dead-letter for unknown job %s", rec.ID)
		}
		j.State = StateDead
		j.Error = rec.Error
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// append writes one record and fsyncs before returning. Acknowledgment
// strictly follows durability: if this returns nil, the record survives
// any crash.
func (q *Queue) append(rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobqueue: encoding record: %w", err)
	}
	b = append(b, '\n')
	if _, err := q.f.Write(b); err != nil {
		return fmt.Errorf("jobqueue: appending journal: %w", err)
	}
	if err := q.f.Sync(); err != nil {
		return fmt.Errorf("jobqueue: syncing journal: %w", err)
	}
	return nil
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
	if q.closed {
		return nil, fmt.Errorf("jobqueue: queue is closed")
	}
	q.seq++
	j := &Job{ID: fmt.Sprintf("j%08d", q.seq), Payload: append([]byte(nil), payload...), State: StatePending}
	if err := q.append(record{Op: "enqueue", ID: j.ID, Payload: j.Payload}); err != nil {
		q.seq--
		return nil, err
	}
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	q.notify()
	return j.snapshot(), nil
}

// TryLease claims the oldest pending job, durably marking it running.
// Returns nil when nothing is pending.
func (q *Queue) TryLease() (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, fmt.Errorf("jobqueue: queue is closed")
	}
	for _, id := range q.order {
		j := q.jobs[id]
		if j.State != StatePending {
			continue
		}
		if err := q.append(record{Op: "lease", ID: j.ID, Attempt: j.Attempt + 1}); err != nil {
			return nil, err
		}
		j.State = StateRunning
		j.Attempt++
		return j.snapshot(), nil
	}
	return nil, nil
}

// Wake returns the channel pulsed when a job becomes leasable. Workers
// select on it alongside their context instead of polling.
func (q *Queue) Wake() <-chan struct{} { return q.wake }

// Finish durably records a successful result. The attempt token must
// match the lease: a worker whose job was requeued out from under it (its
// process was presumed dead) gets an error instead of clobbering the
// retry.
func (q *Queue) Finish(id string, attempt int, result []byte) error {
	return q.settle(id, attempt, record{Op: "done", ID: id, Result: result}, StateDone, func(j *Job) {
		j.Result = append([]byte(nil), result...)
	})
}

// Fail durably records a failure. Same attempt-token rule as Finish.
func (q *Queue) Fail(id string, attempt int, msg string) error {
	return q.settle(id, attempt, record{Op: "fail", ID: id, Error: msg}, StateFailed, func(j *Job) {
		j.Error = msg
	})
}

func (q *Queue) settle(id string, attempt int, rec record, to State, fill func(*Job)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
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
	if err := q.append(rec); err != nil {
		return err
	}
	j.State = to
	fill(j)
	return nil
}

// Requeue durably returns a running job to pending (graceful shutdown:
// the worker is draining, not dead). The attempt token must match. A job
// whose retry budget is exhausted is dead-lettered instead of requeued;
// Get tells the two outcomes apart.
func (q *Queue) Requeue(id string, attempt int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
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

// Stats counts jobs by state.
func (q *Queue) Stats() Counts {
	q.mu.Lock()
	defer q.mu.Unlock()
	var c Counts
	for _, j := range q.jobs {
		switch j.State {
		case StatePending:
			c.Pending++
		case StateRunning:
			c.Running++
		case StateDone:
			c.Done++
		case StateFailed:
			c.Failed++
		case StateDead:
			c.Dead++
		}
	}
	return c
}

// Close flushes and closes the journal. Further mutations fail.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	return q.f.Close()
}

func (j *Job) snapshot() *Job {
	c := *j
	c.Payload = append(json.RawMessage(nil), j.Payload...)
	c.Result = append(json.RawMessage(nil), j.Result...)
	return &c
}
