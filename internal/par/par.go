// Package par provides the bounded fan-out shared by CPU-bound work
// across the repository: the experiment pipelines and the static-analysis
// report.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Map applies fn to every item on at most GOMAXPROCS goroutines and
// returns the results in input order. Callers are CPU-bound (profile
// replay, graph cuts), so more workers would only thrash. Every call
// spawns its own workers, so nested fan-outs (an experiment sweep whose
// items each fan out again) cannot deadlock against each other —
// they merely oversubscribe briefly, which the scheduler absorbs.
//
// When several items fail, the error of the earliest item wins, so the
// reported failure is deterministic regardless of scheduling. A cancelled
// context stops the dispatch of further items, the in-flight fn calls
// observe it through their ctx argument, and the context's error is
// returned unless an earlier item error exists.
//
// fn must not touch mutable state shared between items; every call site
// either builds its own pipeline per item or operates on a private clone.
func Map[T, R any](ctx context.Context, items []T, fn func(context.Context, T) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(items) {
		workers = len(items)
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = fn(ctx, items[i])
			}
		}()
	}
dispatch:
	for i := range items {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
