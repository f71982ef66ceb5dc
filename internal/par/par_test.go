package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrderAndResults(t *testing.T) {
	t.Parallel()
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), items, func(_ context.Context, v int) (int, error) {
		return v * v, nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if len(out) != len(items) {
		t.Fatalf("got %d results, want %d", len(out), len(items))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmptyAndNilContext(t *testing.T) {
	t.Parallel()
	out, err := Map(nil, nil, func(_ context.Context, v int) (int, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty Map = (%v, %v), want ([], nil)", out, err)
	}
}

func TestMapEarliestErrorWins(t *testing.T) {
	t.Parallel()
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := Map(context.Background(), items, func(_ context.Context, v int) (int, error) {
		if v >= 3 {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v, nil
	})
	if err == nil || err.Error() != "item 3 failed" {
		t.Fatalf("err = %v, want the earliest item's error (item 3)", err)
	}
}

// TestMapCancelledBeforeStart: a context cancelled before the call starts
// must fail without running any item.
func TestMapCancelledBeforeStart(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	items := make([]int, 64)
	_, err := Map(ctx, items, func(_ context.Context, v int) (int, error) {
		ran.Add(1)
		return v, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The dispatch select races cancellation against handing out work, so a
	// few items may slip through — but never the whole batch.
	if n := ran.Load(); int(n) >= len(items) {
		t.Fatalf("all %d items ran despite pre-cancelled context", n)
	}
}

// TestMapCancelMidRun: cancelling while workers are blocked inside fn must
// unblock the call and surface context.Canceled.
func TestMapCancelMidRun(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	items := make([]int, 32)
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, items, func(ctx context.Context, v int) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return 0, ctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
