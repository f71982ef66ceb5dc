package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/jobqueue"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/synthapp"
)

const (
	burstJobs = 16
	specPool  = 64
	pollEvery = 500 * time.Microsecond
	// jobTimeout bounds one burst, so that a job that never finishes fails
	// the op and does not hang the run.
	jobTimeout = 10 * time.Second
)

var serviceBurst = workload{
	name: "service-burst",
	why:  "16 of the cheapest valid jobs per burst over HTTP, so HTTP and the job queue are as large a share as they can be; journal in memory, job table held between 2000 and 4000 jobs",
	// 2.2 to 2.8 s of bursts on top of the 64 reference runs.
	warmup:    125,
	heapAfter: 125,
	setup:     newBurst,
}

// burst is service-burst's state: a served queue and a pool of specs with
// the bytes a direct run gives for each.
type burst struct {
	e       *env
	journal *journal
	queue   *jobqueue.Queue
	server  *httptest.Server
	stop    context.CancelFunc
	stopped chan struct{}
	down    error // set when the served queue could not be replaced; fails every later op
	// history is the journal of a segment's worth of finished jobs; every
	// served queue starts from a copy of it.
	history []byte
	bodies  [][]byte  // JSON spec of each pool entry
	refs    [][]byte  // its canonical result
	shares  []float64 // and its predicted share of the default communication
	// directMs is the median direct pipeline.Run + MarshalResult time of a
	// pool spec, the floor under a job's latency.
	directMs float64
	// Counted over the traced loop.
	jobMs       []float64
	jobs, polls int
}

func newBurst(e *env) (*instance, error) {
	b := &burst{e: e}
	var direct []float64
	// The pool is the same for every seed and the seed draws the order it
	// is submitted in. With the seed in pipeline.Spec.Seed instead, these
	// small jobs' predicted communication share spread by 1.5 % across
	// seeds, more than the quality guard's bound.
	for _, i := range rand.New(rand.NewSource(e.cfg.seed)).Perm(specPool) {
		spec := pipeline.Spec{
			App:       fmt.Sprintf("synth:%s:%d:1", synthapp.CacheHeavy, synthAppSeed+i),
			Scenarios: []string{synthapp.ScenBase},
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := pipeline.Run(e.ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", spec.App, err)
		}
		ref, err := pipeline.MarshalResult(res)
		if err != nil {
			return nil, err
		}
		direct = append(direct, ms(time.Since(t0)))
		b.bodies = append(b.bodies, body)
		b.refs = append(b.refs, ref)
		b.shares = append(b.shares, float64(res.PredictedComm)/float64(res.DefaultComm))
	}
	b.directMs = percentile(direct, 50)

	if err := b.writeHistory(); err != nil {
		return nil, fmt.Errorf("journal of finished jobs: %w", err)
	}
	if err := b.serve(); err != nil {
		return nil, err
	}
	note := "journal in memory (memfd)"
	if !b.journal.inMemory {
		note = "journal on disk at " + b.journal.Name() + ": no memfd_create here, so the op time includes the disk's fsyncs"
	}
	return &instance{op: b.op, prepare: b.prepare, layers: b.layers, close: b.unserve, note: note}, nil
}

// writeHistory takes a segment's worth of jobs through a queue of their own
// and keeps its journal.
func (b *burst) writeHistory() error {
	journal, err := newJournal(b.e.cfg.dir)
	if err != nil {
		return err
	}
	defer journal.remove()
	q, err := jobqueue.Open(journal.Name())
	if err != nil {
		return err
	}
	defer q.Close()
	for i := 0; i < b.segment()*burstJobs; i++ {
		if _, _, _, err := b.pushJob(q, i); err != nil {
			return err
		}
	}
	if err := q.Close(); err != nil {
		return err
	}
	b.history, err = os.ReadFile(journal.Name())
	return err
}

// segment is the number of ops a served queue lives for: as many as the
// set-up warms up with, so that the set-up is one whole segment.
func (b *burst) segment() int { return max(b.e.cfg.warmup, 1) }

// serve opens a queue on a copy of the history, as a service restarted on
// its journal does, and starts the workers and the HTTP server on it.
func (b *burst) serve() error {
	journal, err := newJournal(b.e.cfg.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	b.journal = journal
	if _, err := journal.Write(b.history); err != nil {
		journal.remove()
		return fmt.Errorf("journal: %w", err)
	}
	if b.queue, err = jobqueue.Open(journal.Name()); err != nil {
		journal.remove()
		return err
	}
	srv := service.New(b.queue)
	ctx, stop := context.WithCancel(b.e.ctx)
	b.stop, b.stopped = stop, make(chan struct{})
	go func(stopped chan struct{}) {
		defer close(stopped)
		srv.RunWorkers(ctx)
	}(b.stopped)
	b.server = httptest.NewServer(srv.Handler())
	return nil
}

func (b *burst) unserve() error {
	b.server.Close()
	b.stop()
	<-b.stopped
	err := b.queue.Close()
	if rerr := b.journal.remove(); err == nil {
		err = rerr
	}
	return err
}

// prepare replaces the served queue every segment, outside the timed window,
// so that the job table a burst meets runs from one segment's worth of
// finished jobs to two and every stretch of a run is the same sawtooth. A
// burst gets slower as the table grows: 15 ms at the start of one
// uninterrupted 15 s loop on one queue and 24 ms at its end, so the fastest
// ops of such a loop are all in its first second, and a disturbance there
// moved the op time by a fifth. What growth over more jobs than that costs is
// the traced run's jobqueue.*_early and _late.
func (b *burst) prepare(i int) {
	if i == 0 || i%b.segment() != 0 {
		return
	}
	err := b.unserve()
	if err == nil {
		err = b.serve()
	}
	if err != nil {
		b.down = fmt.Errorf("replacing the served queue before op %d: %w", i, err)
	}
}

// memfdCreate is the number of memfd_create(2) where the harness knows it;
// package syscall is older than the call.
var memfdCreate = map[string]uintptr{"amd64": 319, "arm64": 279}

// journal is the file the served queue appends to, held open so that
// jobqueue.Open can reach it by name.
type journal struct {
	*os.File
	inMemory bool
}

// newJournal makes the served queue's journal an anonymous file in memory,
// which jobqueue.Open reaches as /proc/self/fd/N: the same appends and the
// same fsync calls as on a disk, but an fsync that costs what the kernel's
// entry and exit cost. On the checkout's disk the fsyncs were 12 ms of a
// 28 ms burst and moved by 5 to 8 ms between runs of the same code with the
// host's other tenants. What the disk costs is jobqueue.append_disk_ms_p50 of
// the traced run. Where there is no memfd_create the journal is a file in
// dir, and the run says so.
func newJournal(dir string) (*journal, error) {
	if nr, ok := memfdCreate[runtime.GOARCH]; ok {
		name, err := syscall.BytePtrFromString("coignbench-journal")
		if err != nil {
			return nil, err
		}
		if fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(name)), 0, 0); errno == 0 {
			return &journal{os.NewFile(fd, fmt.Sprintf("/proc/self/fd/%d", fd)), true}, nil
		}
	}
	f, err := os.CreateTemp(dir, "queue-*.jsonl")
	if err != nil {
		return nil, err
	}
	return &journal{f, false}, nil
}

func (j *journal) remove() error {
	err := j.Close()
	if !j.inMemory {
		if rerr := os.Remove(j.Name()); err == nil {
			err = rerr
		}
	}
	return err
}

// do sends one request over the shared keep-alive connection and returns
// the status and the whole body.
func (b *burst) do(span, method, path string, body []byte) (status int, out []byte, err error) {
	b.e.rec.do(span, func() {
		var req *http.Request
		if req, err = http.NewRequestWithContext(b.e.ctx, method, b.server.URL+path, bytes.NewReader(body)); err != nil {
			return
		}
		var resp *http.Response
		if resp, err = b.server.Client().Do(req); err != nil {
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		out, err = io.ReadAll(resp.Body)
	})
	return status, out, err
}

// op posts one burst, then polls each job's result until it is there and
// compares it with the direct run's bytes.
func (b *burst) op(i int) (float64, error) {
	if b.down != nil {
		return 0, b.down
	}
	var ids [burstJobs]string
	var sent [burstJobs]time.Time
	for k := range ids {
		sent[k] = time.Now()
		status, out, err := b.do("service.submit", http.MethodPost, "/v1/jobs", b.bodies[(i*burstJobs+k)%specPool])
		if err != nil {
			return 0, err
		}
		var view struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(out, &view); err != nil || status != http.StatusAccepted {
			return 0, fmt.Errorf("submit answered %d %s", status, out)
		}
		ids[k] = view.ID
	}
	var share float64
	deadline := time.Now().Add(jobTimeout)
	for k, id := range ids {
		pool := (i*burstJobs + k) % specPool
		for {
			status, out, err := b.do("service.result_get", http.MethodGet, "/v1/jobs/"+id+"/result", nil)
			if err != nil {
				return 0, err
			}
			b.polls++
			if status == http.StatusOK {
				if !bytes.Equal(out, b.refs[pool]) {
					return 0, fmt.Errorf("job %s: result differs from the direct run of the same spec", id)
				}
				break
			}
			// 409 while pending or running, and for good once failed.
			if status != http.StatusConflict || time.Now().After(deadline) {
				return 0, fmt.Errorf("job %s: result answered %d %s", id, status, out)
			}
			time.Sleep(pollEvery)
		}
		share += b.shares[pool]
		if b.e.rec != nil {
			b.jobMs = append(b.jobMs, ms(time.Since(sent[k])))
		}
	}
	b.jobs += burstJobs
	return share / burstJobs, nil
}

func (b *burst) layers(m map[string]float64) error {
	for i := 0; i < 5; i++ {
		status, out, err := b.do("service.metrics_scrape", http.MethodGet, "/metrics", nil)
		if err != nil {
			return fmt.Errorf("scraping /metrics: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("scraping /metrics: %d %s", status, out)
		}
	}
	m["service.metrics_scrape_ms"] = b.e.rec.byName()["service.metrics_scrape"].meanMs()
	m["service.job_ms_p50"] = percentile(b.jobMs, 50)
	m["service.job_ms_p99"] = percentile(b.jobMs, 99)
	m["service.polls_per_job"] = float64(b.polls) / float64(b.jobs)
	m["service.pipeline_share_pct"] = 100 * b.directMs / m["service.job_ms_p50"]
	return b.probeQueue(m)
}

// pushJob takes pool job i through q by direct calls — enqueue, lease,
// finish, as a lone worker would — and returns what each call took in ms.
func (b *burst) pushJob(q *jobqueue.Queue, i int) (enq, lease, fin float64, err error) {
	t0 := time.Now()
	if _, err := q.Enqueue(b.bodies[i%specPool]); err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	job, err := q.TryLease()
	if err != nil {
		return 0, 0, 0, err
	}
	if job == nil {
		return 0, 0, 0, fmt.Errorf("job %d was enqueued but cannot be leased", i)
	}
	t2 := time.Now()
	if err := q.Finish(job.ID, job.Attempt, b.refs[i%specPool]); err != nil {
		return 0, 0, 0, err
	}
	return ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(time.Since(t2)), nil
}

// probeQueue pushes cfg.probe jobs through a second queue by direct calls —
// enqueue, lease, finish, one job at a time as a lone worker would — and
// reports the first and the last thousand separately, so that a cost that
// grows with the job table shows. Then it reopens that journal to time the
// replay.
func (b *burst) probeQueue(m map[string]float64) error {
	path := filepath.Join(b.e.cfg.dir, fmt.Sprintf("probe-%d.jsonl", os.Getpid()))
	defer os.Remove(path)
	q, err := jobqueue.Open(path)
	if err != nil {
		return err
	}
	defer q.Close()
	n := b.e.cfg.probe
	enq, lease, fin := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if enq[i], lease[i], fin[i], err = b.pushJob(q, i); err != nil {
			return err
		}
	}
	edge := min(1000, n/2)
	for name, v := range map[string][]float64{"enqueue": enq, "lease": lease, "finish": fin} {
		m["jobqueue."+name+"_ms_p50_early"] = percentile(v[:edge], 50)
		m["jobqueue."+name+"_ms_p50_late"] = percentile(v[n-edge:], 50)
	}
	// Every call above is one fsynced append to a journal on the
	// checkout's own disk.
	m["jobqueue.append_disk_ms_p50"] = percentile(append(append(enq, lease...), fin...), 50)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["jobqueue.journal_kb_per_job"] = float64(info.Size()) / 1024 / float64(n)
	if err := q.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	again, err := jobqueue.Open(path)
	if err != nil {
		return fmt.Errorf("reopening the probe journal: %w", err)
	}
	m["jobqueue.open_replay_ms"] = ms(time.Since(t0))
	if got := again.Stats().Done; got != n {
		err = fmt.Errorf("reopened journal holds %d finished jobs, wrote %d", got, n)
	}
	if cerr := again.Close(); err == nil {
		err = cerr
	}
	return err
}
