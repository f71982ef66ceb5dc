// Package service exposes the Coign pipeline as a long-running job
// service: an HTTP API accepts partitioning requests (pipeline.Spec
// bodies), a crash-safe jobqueue persists them, and a worker pool drives
// each through pipeline.Run. A job's result is the pipeline's canonical
// JSON: the queue's journal holds it compacted, the result endpoint reads
// it from there and indents it back, so the service returns byte-for-byte
// what `coign run -json` prints for the same spec, before a restart and
// after.
// A queue whose journal append failed stops, and so does the service: its
// workers exit and its submit and health endpoints answer 503.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/jobqueue"
	"repro/internal/pipeline"
	"repro/internal/version"
)

// Server wires the queue, the worker pool, and the HTTP API together.
type Server struct {
	queue   *jobqueue.Queue
	workers int
	metrics *Metrics
	// drain bounds how long Shutdown waits for in-flight jobs before
	// cancelling them; cancelled jobs are requeued, not lost.
	drain time.Duration
}

// Option tweaks a Server.
type Option func(*Server)

// WithWorkers sets the worker-pool width (default 2, minimum 1).
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithDrainTimeout bounds graceful shutdown (default 30s).
func WithDrainTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.drain = d
		}
	}
}

// New returns a Server over an opened queue.
func New(q *jobqueue.Queue, opts ...Option) *Server {
	s := &Server{queue: q, workers: 2, metrics: NewMetrics(), drain: 30 * time.Second}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// jobView is the status representation served over HTTP.
type jobView struct {
	ID      string         `json:"id"`
	State   jobqueue.State `json:"state"`
	Attempt int            `json:"attempt,omitempty"`
	Error   string         `json:"error,omitempty"`
	Version string         `json:"version"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a pipeline.Spec, normalizes it, and enqueues the
// canonical form. The job is acknowledged only after the queue's journal
// fsync — a 202 means the job survives a crash.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var spec pipeline.Spec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	norm, err := spec.Normalized()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	payload, err := json.Marshal(norm)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding spec: %v", err)
		return
	}
	job, err := s.queue.Enqueue(payload)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "enqueue: %v", err)
		return
	}
	s.metrics.Inc("coign_jobs_queued_total")
	writeJSON(w, http.StatusAccepted, jobView{ID: job.ID, State: job.State, Version: version.String()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jobView{
		ID: job.ID, State: job.State, Attempt: job.Attempt, Error: job.Error,
		Version: version.String(),
	})
}

// resultBuf is what handleResult reads a compact result into and indents
// it into.
type resultBuf struct {
	compact  []byte
	indented bytes.Buffer
}

// resultBufs holds handleResult's buffers, so that a served result costs no
// buffer of its own once the pool is warm.
var resultBufs = sync.Pool{New: func() any { return new(resultBuf) }}

// handleResult serves a finished job's canonical result bytes: the compact
// form the queue reads from its journal, indented as
// pipeline.MarshalResult indents it, with its trailing newline.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	buf := resultBufs.Get().(*resultBuf)
	defer resultBufs.Put(buf)
	compact, state, err := s.queue.Result(id, buf.compact[:0])
	buf.compact = compact
	if err != nil {
		writeError(w, http.StatusInternalServerError, "job %s: stored result: %v", id, err)
		return
	}
	switch state {
	case "":
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	case jobqueue.StateDone:
		buf.indented.Reset()
		if err := json.Indent(&buf.indented, compact, "", "  "); err != nil {
			writeError(w, http.StatusInternalServerError, "job %s: stored result: %v", id, err)
			return
		}
		buf.indented.WriteByte('\n')
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.indented.Bytes()) //nolint:errcheck // streaming to client
	// Failed and dead are terminal, so the error Get reads is the one the
	// state came with.
	case jobqueue.StateFailed:
		job, _ := s.queue.Get(id)
		writeError(w, http.StatusConflict, "job %s failed: %s", id, job.Error)
	case jobqueue.StateDead:
		job, _ := s.queue.Get(id)
		writeError(w, http.StatusConflict, "job %s is dead: %s", id, job.Error)
	default:
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", id, state)
	}
}

// handleHealth answers 200 while the queue accepts jobs and 503, with the
// reason, once its journal failed or it was closed.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	v := map[string]any{
		"status":  "ok",
		"version": version.String(),
		"go":      version.Go(),
		"queue":   s.queue.Stats(),
	}
	status := http.StatusOK
	if err := s.queue.Err(); err != nil {
		status = http.StatusServiceUnavailable
		v["status"], v["error"] = "unavailable", err.Error()
	}
	writeJSON(w, status, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	c := s.queue.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.Write(w, map[string]float64{ //nolint:errcheck // streaming to client
		"coign_jobs_pending": float64(c.Pending),
		"coign_jobs_running": float64(c.Running),
		"coign_jobs_done":    float64(c.Done),
		"coign_jobs_failed":  float64(c.Failed),
		"coign_jobs_dead":    float64(c.Dead),
	})
}

// RunWorkers runs the worker pool until ctx is cancelled, then drains:
// leasing stops immediately, in-flight jobs get up to the drain timeout
// to finish, and any still running are cancelled and requeued. Returns
// after the pool is fully stopped.
func (s *Server) RunWorkers(ctx context.Context) {
	jobsCtx, cancelJobs := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.workerLoop(ctx, jobsCtx)
		}()
	}
	// Drain sequencing: wait for the stop signal, give in-flight jobs the
	// grace window, then cut them over to cancellation.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		cancelJobs()
		return
	case <-ctx.Done():
	}
	select {
	case <-done:
	case <-time.After(s.drain):
		cancelJobs()
		<-done
	}
	cancelJobs()
}

// workerLoop leases and executes jobs until leaseCtx is cancelled. Jobs
// themselves run under jobCtx so the drain window, not the lease stop,
// decides when execution is interrupted.
func (s *Server) workerLoop(leaseCtx, jobCtx context.Context) {
	// One fallback timer per worker, not a time.After per idle wait: under
	// this module's Go version an unfired timer stays reachable until it
	// fires, so a timer per wait holds heap in proportion to the job rate.
	poll := time.NewTimer(250 * time.Millisecond)
	defer poll.Stop()
	for {
		job, err := s.queue.TryLease()
		if err != nil {
			return // queue closed, or stopped by a failed append
		}
		if job == nil {
			select {
			case <-leaseCtx.Done():
				return
			case <-s.queue.Wake():
				continue
			case <-poll.C:
				// Fallback poll: a wake pulse can be consumed by a sibling
				// worker that then leases only one of several new jobs.
				poll.Reset(250 * time.Millisecond)
				continue
			}
		}
		s.execute(jobCtx, job)
		if leaseCtx.Err() != nil {
			return
		}
	}
}

// execute runs one job through the pipeline and settles it. A job killed
// by drain cancellation is requeued — the next serve picks it up — while
// a bad spec or a pipeline error fails it permanently.
func (s *Server) execute(ctx context.Context, job *jobqueue.Job) {
	var spec pipeline.Spec
	if err := json.Unmarshal(job.Payload, &spec); err != nil {
		s.fail(job, fmt.Sprintf("decoding job payload: %v", err))
		return
	}
	res, err := pipeline.Run(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			// Drain cancellation, not a bad job: put it back. The queue may
			// dead-letter it instead if the retry budget is spent.
			if rqErr := s.queue.Requeue(job.ID, job.Attempt); rqErr == nil {
				if j, ok := s.queue.Get(job.ID); ok && j.State == jobqueue.StateDead {
					s.metrics.Inc("coign_jobs_dead_total")
				}
				return
			}
			// Requeue can only fail if the lease is already stale; fall
			// through and record the failure.
		}
		s.fail(job, err.Error())
		return
	}
	b, err := pipeline.MarshalResult(res)
	if err != nil {
		s.fail(job, err.Error())
		return
	}
	if err := s.queue.Finish(job.ID, job.Attempt, b); err == nil {
		s.metrics.Inc("coign_jobs_done_total")
		s.metrics.ObserveStages(res.Stages)
	}
}

func (s *Server) fail(job *jobqueue.Job, msg string) {
	// Journal messages stay single-line.
	msg = strings.ReplaceAll(msg, "\n", " ")
	if err := s.queue.Fail(job.ID, job.Attempt, msg); err == nil {
		s.metrics.Inc("coign_jobs_failed_total")
	}
}
