package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobqueue"
	"repro/internal/pipeline"
	"repro/internal/scenario"
)

func startService(t *testing.T, workers int) (*Server, *httptest.Server, context.CancelFunc) {
	t.Helper()
	q, err := jobqueue.Open(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(q, WithWorkers(workers), WithDrainTimeout(5*time.Second))
	ts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { srv.RunWorkers(ctx); close(done) }()
	t.Cleanup(func() {
		cancel()
		<-done
		ts.Close()
		q.Close()
	})
	return srv, ts, cancel
}

func postJob(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, b)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

func waitDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case "done":
			return
		case "failed":
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestEndToEndByteIdentical is the service's core contract: a job
// submitted over HTTP produces exactly the bytes pipeline.Run encodes for
// the same spec — the CLI and the service are interchangeable surfaces.
func TestEndToEndByteIdentical(t *testing.T) {
	t.Parallel()
	_, ts, _ := startService(t, 2)
	spec := pipeline.Spec{App: "synth:three-tier:1", Scenarios: scenario.TrainingForApp("synth:three-tier:1")}
	if len(spec.Scenarios) == 0 {
		t.Fatal("no training scenarios for synth:three-tier:1")
	}
	body, _ := json.Marshal(spec)
	id := postJob(t, ts, string(body))
	waitDone(t, ts, id)

	status, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
	if status != http.StatusOK {
		t.Fatalf("GET result = %d: %s", status, got)
	}

	res, err := pipeline.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("direct pipeline.Run: %v", err)
	}
	want, err := pipeline.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service result diverges from direct run:\n--- service ---\n%s\n--- direct ---\n%s", got, want)
	}
}

// TestSubmitValidation: malformed bodies and invalid specs are rejected
// with 400 before anything is enqueued.
func TestSubmitValidation(t *testing.T) {
	t.Parallel()
	_, ts, _ := startService(t, 1)
	for _, body := range []string{
		`{`,                                // malformed JSON
		`{"scenarios":[]}`,                 // no scenarios
		`{"scenarios":["nope"]}`,           // unknown scenario
		`{"scenarios":["o_oldwp0"],"x":1}`, // unknown field
		`{"scenarios":["o_oldwp0"],"pins":{"A":"middle"}}`, // bad pin
		`{"scenarios":["o_oldwp0"],"depth":-1}`,            // negative depth
		`{"scenarios":["o_oldwp0"],"theta":1.5}`,           // theta at or above 1
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestBadSyntheticSpecFailsJob: a job that validates shallowly but whose
// synthetic app spec is malformed fails cleanly, with the error surfaced
// in the job status — no panic, no wedged queue.
func TestBadSyntheticSpecFailsJob(t *testing.T) {
	t.Parallel()
	_, ts, _ := startService(t, 1)
	body := `{"app":"synth:three-tier:notanumber","scenarios":["s_browse"]}`
	id := postJob(t, ts, body)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, b := getBody(t, ts.URL+"/v1/jobs/"+id)
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == "failed" {
			if !strings.Contains(v.Error, "bad seed") {
				t.Fatalf("failure message %q does not name the bad seed", v.Error)
			}
			status, _ := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
			if status != http.StatusConflict {
				t.Fatalf("GET result of failed job = %d, want 409", status)
			}
			return
		}
		if v.State == "done" {
			t.Fatal("malformed synthetic spec unexpectedly succeeded")
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job never settled")
}

// TestMetricsExposition: after a completed job, /metrics reports the
// counters and the cut-duration histogram.
func TestMetricsExposition(t *testing.T) {
	t.Parallel()
	_, ts, _ := startService(t, 1)
	body, _ := json.Marshal(pipeline.Spec{Scenarios: []string{"o_oldwp0"}})
	id := postJob(t, ts, string(body))
	waitDone(t, ts, id)

	status, b := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	text := string(b)
	for _, want := range []string{
		"coign_jobs_queued_total 1",
		"coign_jobs_done_total 1",
		"coign_jobs_pending 0",
		"coign_jobs_running 0",
		"coign_jobs_done 1",
		"coign_jobs_failed 0",
		"coign_cut_duration_seconds_count 1",
		"coign_cut_duration_seconds_bucket{le=\"+Inf\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHealthz reports version and queue depths.
func TestHealthz(t *testing.T) {
	t.Parallel()
	_, ts, _ := startService(t, 1)
	status, b := getBody(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("GET /healthz = %d", status)
	}
	var v struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		Queue   struct {
			Pending int `json:"pending"`
		} `json:"queue"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != "ok" || v.Version == "" {
		t.Fatalf("healthz = %s", b)
	}
}

// TestUnknownJobRoutes: status and result 404 on unknown ids.
func TestUnknownJobRoutes(t *testing.T) {
	t.Parallel()
	_, ts, _ := startService(t, 1)
	for _, path := range []string{"/v1/jobs/j99999999", "/v1/jobs/j99999999/result"} {
		status, _ := getBody(t, ts.URL+path)
		if status != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, status)
		}
	}
}

// drainScenarios make the drain tests' heavyweight job: octarine's
// training suite plus its bigone keeps the worker busy long enough for the
// drain to cancel the job before its cut, the one point where a job
// observes cancellation. With o_bigone alone the job finished first on
// 10–15 % of runs.
var drainScenarios = append(scenario.TrainingForApp("octarine"), "o_bigone")

// TestDrainRequeuesInFlight: cancelling the worker context with a tiny
// drain window requeues the in-flight job instead of losing or failing
// it.
func TestDrainRequeuesInFlight(t *testing.T) {
	t.Parallel()
	q, err := jobqueue.Open(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	srv := New(q, WithWorkers(1), WithDrainTimeout(time.Millisecond))
	spec, _ := json.Marshal(pipeline.Spec{Scenarios: drainScenarios, Seed: 1})
	job, err := q.Enqueue(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { srv.RunWorkers(ctx); close(done) }()
	// Give the worker a moment to lease and start.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, _ := q.Get(job.ID); j != nil && j.State == jobqueue.StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool did not stop")
	}
	j, _ := q.Get(job.ID)
	if j.State == jobqueue.StateDone {
		return // fast machine finished the job before the drain cut in — also fine
	}
	if j.State != jobqueue.StatePending {
		t.Fatalf("in-flight job after drain = %s (error %q), want pending (requeued) or done", j.State, j.Error)
	}
}

// TestDrainDeadLettersExhaustedJob: with a single-attempt budget, the
// drain requeue dead-letters the in-flight job, and the dead verdict is
// visible in the status view, the result endpoint, and the metrics.
func TestDrainDeadLettersExhaustedJob(t *testing.T) {
	t.Parallel()
	q, err := jobqueue.Open(filepath.Join(t.TempDir(), "jobs.jsonl"), jobqueue.WithMaxAttempts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	srv := New(q, WithWorkers(1), WithDrainTimeout(time.Millisecond))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec, _ := json.Marshal(pipeline.Spec{Scenarios: drainScenarios, Seed: 1})
	job, err := q.Enqueue(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { srv.RunWorkers(ctx); close(done) }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, _ := q.Get(job.ID); j != nil && j.State == jobqueue.StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool did not stop")
	}
	j, _ := q.Get(job.ID)
	if j.State == jobqueue.StateDone {
		t.Skip("fast machine finished the job before the drain cut in")
	}
	if j.State != jobqueue.StateDead {
		t.Fatalf("in-flight job after exhausted drain = %s (error %q), want dead", j.State, j.Error)
	}

	code, body := getBody(t, ts.URL+"/v1/jobs/"+job.ID)
	if code != http.StatusOK || !strings.Contains(string(body), `"state": "dead"`) {
		t.Fatalf("status view = %d: %s", code, body)
	}
	code, body = getBody(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
	if code != http.StatusConflict || !strings.Contains(string(body), "dead") {
		t.Fatalf("result of dead job = %d: %s", code, body)
	}
	code, body = getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK ||
		!strings.Contains(string(body), "coign_jobs_dead 1") ||
		!strings.Contains(string(body), "coign_jobs_dead_total 1") {
		t.Fatalf("metrics after dead-letter = %d:\n%s", code, body)
	}
}

func TestMetricsWriteDeterministic(t *testing.T) {
	t.Parallel()
	m := NewMetrics()
	m.Inc("b_total")
	m.Inc("a_total")
	m.ObserveCutSeconds(0.003)
	var x, y bytes.Buffer
	if err := m.Write(&x, map[string]float64{"g": 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(&y, map[string]float64{"g": 1}); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatal("metrics exposition is not deterministic")
	}
	if !strings.Contains(x.String(), "a_total 1") || strings.Index(x.String(), "a_total") > strings.Index(x.String(), "b_total") {
		t.Fatalf("counters not sorted:\n%s", x.String())
	}
}

// TestResultSameAfterRestart: a service restarted on its journal serves a
// finished job's result byte for byte as pipeline.MarshalResult encodes
// it, though the journal keeps the result compacted.
func TestResultSameAfterRestart(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q, err := jobqueue.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := pipeline.Spec{App: "synth:three-tier:1", Scenarios: scenario.TrainingForApp("synth:three-tier:1")}
	payload, _ := json.Marshal(spec)
	if _, err := q.Enqueue(payload); err != nil {
		t.Fatal(err)
	}
	job, err := q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(job.ID, job.Attempt, want); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q, err = jobqueue.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ts := httptest.NewServer(New(q).Handler())
	defer ts.Close()
	status, got := getBody(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("GET result after restart = %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result after restart diverges:\n--- served ---\n%s\n--- MarshalResult ---\n%s", got, want)
	}
}

// TestStoppedQueueUnavailable: once the queue refuses mutations, submits
// and the health check answer 503, the latter with the reason.
func TestStoppedQueueUnavailable(t *testing.T) {
	t.Parallel()
	q, err := jobqueue.Open(filepath.Join(t.TempDir(), "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(q).Handler())
	defer ts.Close()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"scenarios":["o_oldwp0"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/jobs on a stopped queue = %d, want 503", resp.StatusCode)
	}
	status, b := getBody(t, ts.URL+"/healthz")
	var v struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || v.Status != "unavailable" || !strings.Contains(v.Error, "closed") {
		t.Fatalf("GET /healthz on a stopped queue = %d: %s", status, b)
	}
}
