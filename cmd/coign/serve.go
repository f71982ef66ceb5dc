package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/jobqueue"
	"repro/internal/service"
	"repro/internal/version"
)

// cmdServe runs the partitioning job service: a crash-safe on-disk job
// queue, a worker pool driving pipeline.Run, and the HTTP API. SIGTERM
// (or SIGINT) triggers a graceful drain — leasing stops, in-flight jobs
// get the -drain window to finish, and any still running are requeued for
// the next serve to pick up.
func cmdServe(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlags("serve")
	addr := fs.String("addr", "127.0.0.1:7090", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (pairs with -addr :0)")
	queuePath := fs.String("queue", "coign-jobs.jsonl", "job journal path")
	workers := fs.Int("workers", 2, "worker-pool width")
	drain := fs.Duration("drain", 30*time.Second, "shutdown grace for in-flight jobs")
	maxAttempts := fs.Int("max-attempts", 5, "dead-letter a job after this many attempts (0 = retry forever)")
	if err := fs.parse(args); err != nil {
		return err
	}

	q, err := jobqueue.Open(*queuePath, jobqueue.WithMaxAttempts(*maxAttempts))
	if err != nil {
		return err
	}
	defer q.Close()
	srv := service.New(q, service.WithWorkers(*workers), service.WithDrainTimeout(*drain))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Scripts using -addr :0 read the real port from here.
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	c := q.Stats()
	fmt.Fprintf(w, "coign %s serving on http://%s (queue %s: %d pending, %d done; %d workers)\n",
		version.String(), bound, *queuePath, c.Pending, c.Done, *workers)

	hs := &http.Server{Handler: srv.Handler()}
	workersDone := make(chan struct{})
	go func() { srv.RunWorkers(ctx); close(workersDone) }()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(w, "coign: signal received; draining workers")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		<-workersDone
		return err
	}
	<-workersDone
	fmt.Fprintln(w, "coign: drained")
	return nil
}
