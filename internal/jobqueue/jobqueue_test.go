package jobqueue

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func openT(t *testing.T, path string, opts ...Option) *Queue {
	t.Helper()
	q, err := Open(path, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

// resultT reads job id's result, which must be done.
func resultT(t *testing.T, q *Queue, id string) string {
	t.Helper()
	res, state, err := q.Result(id, nil)
	if err != nil || state != StateDone {
		t.Fatalf("Result(%s) = %s, %v; want done", id, state, err)
	}
	return string(res)
}

func TestEnqueueLeaseFinish(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path)
	j, err := q.Enqueue([]byte(`{"n":1}`))
	if err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if j.State != StatePending {
		t.Fatalf("state = %s, want pending", j.State)
	}
	l, err := q.TryLease()
	if err != nil || l == nil {
		t.Fatalf("TryLease = (%v, %v)", l, err)
	}
	if l.ID != j.ID || l.Attempt != 1 {
		t.Fatalf("lease = %+v", l)
	}
	if err := q.Finish(l.ID, l.Attempt, []byte(`{"ok":true}`)); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	got, ok := q.Get(j.ID)
	if !ok || got.State != StateDone || got.Payload != nil {
		t.Fatalf("Get = %+v, %v; want done, its payload dropped", got, ok)
	}
	if res := resultT(t, q, j.ID); res != `{"ok":true}` {
		t.Fatalf("Result = %s", res)
	}
	if c := q.Stats(); c.Done != 1 || c.Pending != 0 {
		t.Fatalf("Stats = %+v", c)
	}
}

func TestLeaseFIFO(t *testing.T) {
	t.Parallel()
	q := openT(t, filepath.Join(t.TempDir(), "jobs.jsonl"))
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := q.Enqueue([]byte(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, want := range ids {
		l, err := q.TryLease()
		if err != nil || l == nil || l.ID != want {
			t.Fatalf("TryLease = (%v, %v), want id %s", l, err, want)
		}
	}
	if l, _ := q.TryLease(); l != nil {
		t.Fatalf("TryLease on drained queue = %+v", l)
	}
}

// TestEnqueueDurableBeforeAck: by the time Enqueue returns, the record is
// a complete line on disk — the caller's acknowledgment is never ahead of
// the journal.
func TestEnqueueDurableBeforeAck(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path)
	j, err := q.Enqueue([]byte(`{"payload":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), j.ID) || !strings.HasSuffix(string(raw), "\n") {
		t.Fatalf("journal after ack does not hold the complete record: %q", raw)
	}
}

// TestRecoveryRequeuesRunning: a job that was running when the process
// died comes back pending with a bumped attempt, and the stale worker's
// Finish is rejected.
func TestRecoveryRequeuesRunning(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path)
	j, err := q.Enqueue([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	l, err := q.TryLease()
	if err != nil || l == nil {
		t.Fatal(err)
	}
	q.Close() // crash: worker never finished

	q2 := openT(t, path)
	got, ok := q2.Get(j.ID)
	if !ok || got.State != StatePending || got.Attempt != 2 {
		t.Fatalf("after recovery: %+v, %v (want pending, attempt 2)", got, ok)
	}
	l2, err := q2.TryLease()
	if err != nil || l2 == nil || l2.Attempt != 3 {
		t.Fatalf("re-lease = (%+v, %v), want attempt 3", l2, err)
	}
	// The pre-crash worker's lease (attempt 1) must not settle the retry.
	if err := q2.Finish(j.ID, 1, []byte(`stale`)); err == nil {
		t.Fatal("stale Finish accepted")
	}
	if err := q2.Finish(j.ID, l2.Attempt, []byte(`"fresh"`)); err != nil {
		t.Fatalf("fresh Finish: %v", err)
	}
}

// TestRecoveryTornTail: a crash mid-append leaves a partial trailing
// line. Open must drop exactly that record — it was never acknowledged —
// and keep every earlier job.
func TestRecoveryTornTail(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path)
	j1, err := q.Enqueue([]byte(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue([]byte(`{"n":2}`)); err != nil {
		t.Fatal(err)
	}
	q.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the second record's append was cut short.
	torn := raw[:len(raw)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	q2 := openT(t, path)
	if _, ok := q2.Get(j1.ID); !ok {
		t.Fatalf("job %s lost to an unrelated torn tail", j1.ID)
	}
	if c := q2.Stats(); c.Pending != 1 {
		t.Fatalf("Stats after torn-tail recovery = %+v, want exactly the 1 acknowledged job", c)
	}
	// New enqueues must not collide with the surviving id space.
	j3, err := q2.Enqueue([]byte(`{"n":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID == j1.ID {
		t.Fatalf("id collision after recovery: %s", j3.ID)
	}
}

// TestRecoveryMidJournalCorruption: a malformed line that is NOT the torn
// tail is real corruption and must fail the open loudly.
func TestRecoveryMidJournalCorruption(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path)
	if _, err := q.Enqueue([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	q.Close()
	raw, _ := os.ReadFile(path)
	bad := append([]byte("garbage not json\n"), raw...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a corrupt mid-journal line")
	}
}

// TestRecoveryPreservesResults: done and failed jobs replay with their
// outcome intact.
func TestRecoveryPreservesResults(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path)
	a, _ := q.Enqueue([]byte(`{}`))
	b, _ := q.Enqueue([]byte(`{}`))
	la, _ := q.TryLease()
	if err := q.Finish(la.ID, la.Attempt, []byte(`{"v":42}`)); err != nil {
		t.Fatal(err)
	}
	lb, _ := q.TryLease()
	if err := q.Fail(lb.ID, lb.Attempt, "boom"); err != nil {
		t.Fatal(err)
	}
	q.Close()

	q2 := openT(t, path)
	if res := resultT(t, q2, a.ID); res != `{"v":42}` {
		t.Fatalf("done job after replay: %s", res)
	}
	gb, _ := q2.Get(b.ID)
	if gb.State != StateFailed || gb.Error != "boom" {
		t.Fatalf("failed job after replay: %+v", gb)
	}
}

func TestRequeueGraceful(t *testing.T) {
	t.Parallel()
	q := openT(t, filepath.Join(t.TempDir(), "jobs.jsonl"))
	j, _ := q.Enqueue([]byte(`{}`))
	l, _ := q.TryLease()
	if err := q.Requeue(l.ID, l.Attempt); err != nil {
		t.Fatalf("Requeue: %v", err)
	}
	got, _ := q.Get(j.ID)
	if got.State != StatePending || got.Attempt != 2 {
		t.Fatalf("after requeue: %+v", got)
	}
	select {
	case <-q.Wake():
	default:
		t.Fatal("requeue did not pulse the wake channel")
	}
}

// TestDeadLetterOnRequeue: with a retry budget, the requeue that would
// exceed it dead-letters the job instead — terminal, never leased again,
// counted separately from failures.
func TestDeadLetterOnRequeue(t *testing.T) {
	t.Parallel()
	q := openT(t, filepath.Join(t.TempDir(), "jobs.jsonl"), WithMaxAttempts(2))
	j, _ := q.Enqueue([]byte(`{}`))

	l, _ := q.TryLease() // attempt 1
	if err := q.Requeue(l.ID, l.Attempt); err != nil {
		t.Fatalf("first Requeue: %v", err)
	}
	l, _ = q.TryLease() // attempt 2, the budget
	if err := q.Requeue(l.ID, l.Attempt); err != nil {
		t.Fatalf("budget-exhausting Requeue: %v", err)
	}
	got, _ := q.Get(j.ID)
	if got.State != StateDead || !strings.Contains(got.Error, "dead-lettered after 2 attempt(s)") {
		t.Fatalf("after exhausted requeue: %+v, want dead", got)
	}
	if l, _ := q.TryLease(); l != nil {
		t.Fatalf("dead job leased: %+v", l)
	}
	if c := q.Stats(); c.Dead != 1 || c.Failed != 0 || c.Pending != 0 {
		t.Fatalf("Stats = %+v, want exactly one dead job", c)
	}
}

// TestDeadLetterOnRecovery: crash-loop protection — a job found running at
// Open with its attempts spent goes to dead, not back to pending.
func TestDeadLetterOnRecovery(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path, WithMaxAttempts(1))
	j, _ := q.Enqueue([]byte(`{}`))
	if l, _ := q.TryLease(); l == nil {
		t.Fatal("lease failed")
	}
	q.Close() // crash mid-attempt 1: the sole permitted attempt

	q2 := openT(t, path, WithMaxAttempts(1))
	got, ok := q2.Get(j.ID)
	if !ok || got.State != StateDead {
		t.Fatalf("after recovery: %+v, %v (want dead)", got, ok)
	}
	if l, _ := q2.TryLease(); l != nil {
		t.Fatalf("dead job leased after recovery: %+v", l)
	}
}

// TestDeadLetterDurable: the dead verdict is a journal record and replays
// even when the next Open sets no retry budget at all.
func TestDeadLetterDurable(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path, WithMaxAttempts(1))
	j, _ := q.Enqueue([]byte(`{}`))
	l, _ := q.TryLease()
	if err := q.Requeue(l.ID, l.Attempt); err != nil {
		t.Fatal(err)
	}
	q.Close()

	q2 := openT(t, path)
	got, _ := q2.Get(j.ID)
	if got.State != StateDead || got.Error == "" {
		t.Fatalf("dead verdict lost on replay: %+v", got)
	}
	if c := q2.Stats(); c.Dead != 1 {
		t.Fatalf("Stats = %+v", c)
	}
}

// TestNoBudgetRetriesForever: the default queue never dead-letters.
func TestNoBudgetRetriesForever(t *testing.T) {
	t.Parallel()
	q := openT(t, filepath.Join(t.TempDir(), "jobs.jsonl"))
	j, _ := q.Enqueue([]byte(`{}`))
	for i := 0; i < 10; i++ {
		l, _ := q.TryLease()
		if l == nil {
			t.Fatalf("lease %d failed", i)
		}
		if err := q.Requeue(l.ID, l.Attempt); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := q.Get(j.ID)
	if got.State != StatePending || got.Attempt != 20 {
		t.Fatalf("after 10 requeues without a budget: %+v", got)
	}
}

// TestAppendFailureStopsQueue: an append whose Write or Sync fails may
// have left its record in the file all the same, so the queue stops. Had
// it gone on, the next Enqueue would reuse the failed one's id, and a
// journal holding both records would never open again.
func TestAppendFailureStopsQueue(t *testing.T) {
	t.Parallel()
	for _, fault := range []byte{'w', 's'} {
		q, m, err := openMem(nil)
		if err != nil {
			t.Fatal(err)
		}
		acked, err := q.Enqueue([]byte(`{"n":1}`))
		if err != nil {
			t.Fatal(err)
		}
		m.failNext(fault)
		if _, err := q.Enqueue([]byte(`{"n":2}`)); !errors.Is(err, errInjected) {
			t.Fatalf("fault %c: Enqueue = %v, want the injected failure", fault, err)
		}
		m.fault = 0
		if _, err := q.Enqueue([]byte(`{"n":3}`)); !errors.Is(err, errInjected) {
			t.Fatalf("fault %c: Enqueue after a failed append = %v, want the failure again", fault, err)
		}
		if _, err := q.TryLease(); !errors.Is(err, errInjected) {
			t.Fatalf("fault %c: TryLease after a failed append = %v", fault, err)
		}
		if err := q.Err(); !errors.Is(err, errInjected) {
			t.Fatalf("fault %c: Err = %v", fault, err)
		}
		q2, _, err := openMem(m.buf)
		if err != nil {
			t.Fatalf("fault %c: reopening after a failed append: %v", fault, err)
		}
		if got, ok := q2.Get(acked.ID); !ok || got.State != StatePending {
			t.Fatalf("fault %c: acknowledged job after reopen = %+v, %v", fault, got, ok)
		}
	}
}

// TestResultSameAfterReopen: Result reads the compact form the journal
// holds, the same bytes before and after a restart.
func TestResultSameAfterReopen(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path)
	j, _ := q.Enqueue([]byte(`{}`))
	l, _ := q.TryLease()
	if err := q.Finish(l.ID, l.Attempt, []byte("{\n  \"v\": [\n    1,\n    2\n  ]\n}\n")); err != nil {
		t.Fatal(err)
	}
	before := resultT(t, q, j.ID)
	if before != `{"v":[1,2]}` {
		t.Fatalf("result before reopen = %q, want it compacted", before)
	}
	q.Close()
	if after := resultT(t, openT(t, path), j.ID); after != before {
		t.Fatalf("result after reopen = %q, before %q", after, before)
	}
}

// TestResultAfterClose: a closed queue reads no result, and says so.
func TestResultAfterClose(t *testing.T) {
	t.Parallel()
	q, _, err := openMem(nil)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := q.Enqueue([]byte(`{}`))
	l, _ := q.TryLease()
	if err := q.Finish(l.ID, l.Attempt, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if res, state, err := q.Result(j.ID, nil); !errors.Is(err, errClosed) || state != StateDone || len(res) != 0 {
		t.Fatalf("Result after Close = %q, %s, %v; want done and errClosed", res, state, err)
	}
}

// syncless is a journal file whose Sync does nothing, for tests that
// append thousands of records and measure something other than fsync.
type syncless struct{ *os.File }

func (syncless) Sync() error { return nil }

// TestFinishedJobKeepsNoResult: a finished job's heap does not depend on
// its result, which stays in the journal file.
//
//lint:allow paralleltest heap measurement: no other test may allocate meanwhile
func TestFinishedJobKeepsNoResult(t *testing.T) {
	const jobs = 2000
	perJob := func(size int) float64 {
		f, err := os.Create(filepath.Join(t.TempDir(), "jobs.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		result := []byte(`"` + strings.Repeat("r", size-2) + `"`)
		payload := []byte(`{"scenarios":["o_oldwp7"]}`)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		q, err := load(nil, syncless{f})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < jobs; i++ {
			if _, err := q.Enqueue(payload); err != nil {
				t.Fatal(err)
			}
			l, err := q.TryLease()
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Finish(l.ID, l.Attempt, result); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if res := resultT(t, q, "j00000001"); res != string(result) {
			t.Fatalf("first job reads %d bytes, want %d", len(res), len(result))
		}
		return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / jobs
	}
	big, small := perJob(4096), perJob(40)
	t.Logf("retained per finished job: %.0f B with 4 KB results, %.0f B with 40 B results", big, small)
	if big > 256 || small > 256 {
		t.Fatalf("a finished job keeps %.0f B (4 KB result) and %.0f B (40 B result), want at most 256", big, small)
	}
	if d := big - small; d >= 32 || d <= -32 {
		t.Fatalf("a 4 KB result costs %.0f B more per finished job than a 40 B one, want under 32", d)
	}
}

// TestTornTailCutOff: Open cuts a torn tail off the file, so the next
// append starts a line of its own rather than finishing the torn one into
// a corrupt line that fails every later open.
func TestTornTailCutOff(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q := openT(t, path)
	for i := 0; i < 2; i++ {
		if _, err := q.Enqueue([]byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	q2 := openT(t, path)
	if _, err := q2.Enqueue([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	q2.Close()
	if c := openT(t, path).Stats(); c.Pending != 2 {
		t.Fatalf("Stats after a torn tail and one more enqueue = %+v, want 2 pending", c)
	}
}

// TestJobSizeClass: Job stays within the allocator's 112-byte size class.
func TestJobSizeClass(t *testing.T) {
	t.Parallel()
	if s := unsafe.Sizeof(Job{}); s > 112 {
		t.Fatalf("Job is %d bytes, past the 112-byte size class", s)
	}
}

// BenchmarkTryLease leases the one pending job behind a history of
// finished ones and requeues it, on a journal in memory. A lease costs the
// same whatever the history.
func BenchmarkTryLease(b *testing.B) {
	for _, finished := range []int{100, 10000} {
		b.Run(fmt.Sprintf("finished=%d", finished), func(b *testing.B) {
			q, m, err := openMem(nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i <= finished; i++ {
				if _, err := q.Enqueue([]byte(`{}`)); err != nil {
					b.Fatal(err)
				}
				if i == finished {
					break
				}
				l, err := q.TryLease()
				if err != nil {
					b.Fatal(err)
				}
				if err := q.Finish(l.ID, l.Attempt, []byte(`{}`)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := q.TryLease()
				if err != nil || l == nil {
					b.Fatalf("TryLease = %v, %v", l, err)
				}
				if err := q.Requeue(l.ID, l.Attempt); err != nil {
					b.Fatal(err)
				}
				m.buf = m.buf[:0]
			}
		})
	}
}

// BenchmarkOpen reopens a journal of 3,000 finished jobs, each with a
// result of about 640 bytes, as a restarted service does.
func BenchmarkOpen(b *testing.B) {
	q, m, err := openMem(nil)
	if err != nil {
		b.Fatal(err)
	}
	result := []byte(`{"cut":"` + strings.Repeat("c", 620) + `"}`)
	for i := 0; i < 3000; i++ {
		if _, err := q.Enqueue([]byte(`{"scenarios":["o_oldwp7"]}`)); err != nil {
			b.Fatal(err)
		}
		l, err := q.TryLease()
		if err != nil {
			b.Fatal(err)
		}
		if err := q.Finish(l.ID, l.Attempt, result); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "jobs.jsonl")
	if err := os.WriteFile(path, m.buf, 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		q.Close()
	}
}
