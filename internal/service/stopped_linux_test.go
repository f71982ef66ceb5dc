package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/jobqueue"
	"repro/internal/pipeline"
)

// breakJournal puts a read-only descriptor of the journal at path in the
// place of the queue's own, so that the queue's next append fails while
// its reads of the same file still work.
func breakJournal(t *testing.T, path string) {
	t.Helper()
	path, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to find the journal's descriptor in: %v", err)
	}
	roFd := int(ro.Fd())
	broken := 0
	for _, e := range fds {
		fd, err := strconv.Atoi(e.Name())
		if err != nil || fd == roFd {
			continue
		}
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && target == path {
			if err := syscall.Dup3(roFd, fd, 0); err != nil {
				t.Fatal(err)
			}
			broken++
		}
	}
	if broken != 1 {
		t.Fatalf("found %d descriptors open on %s, want the queue's one", broken, path)
	}
}

// TestStoppedQueueStillServesResults: after a failed append stops the
// queue, submits answer 503, and a job finished before the failure still
// serves its result, read from the journal, byte for byte as
// pipeline.MarshalResult encodes it.
func TestStoppedQueueStillServesResults(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	q, err := jobqueue.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	spec := pipeline.Spec{Scenarios: []string{"o_oldwp7"}}
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
	ts := httptest.NewServer(New(q).Handler())
	defer ts.Close()

	breakJournal(t, path)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"scenarios":["o_oldwp0"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || q.Err() == nil {
		t.Fatalf("POST /v1/jobs after a failed append = %d (queue error %v), want 503", resp.StatusCode, q.Err())
	}
	status, got := getBody(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("GET result of a job finished before the failure = %d:\n%s\nwant 200:\n%s", status, got, want)
	}
}
