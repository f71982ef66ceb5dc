package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // the op that caused it; spans of one op share it
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Alloc  uint64 `json:"allocBytes"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: every method is a no-op that still runs the call, so
// workloads wrap their layer calls unconditionally.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
	op    int
	heap  [1]metrics.Sample
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.heap[0].Name = "/gc/heap/allocs:bytes"
	return r
}

func (r *recorder) allocated() uint64 {
	metrics.Read(r.heap[:])
	return r.heap[0].Value.Uint64()
}

// do runs f inside a span called name.
func (r *recorder) do(name string, f func()) {
	if r == nil {
		f()
		return
	}
	id := len(r.spans)
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: r.op})
	r.open = append(r.open, id)
	alloc := r.allocated()
	start := time.Since(r.t0)
	f()
	end := time.Since(r.t0)
	s := &r.spans[id]
	s.Start, s.End, s.Alloc = int64(start), int64(end), r.allocated()-alloc
	r.open = r.open[:len(r.open)-1]
}

// setOp tags the spans that follow with the op that causes them.
func (r *recorder) setOp(i int) {
	if r != nil {
		r.op = i
	}
}

// layerStats summarises the spans of one name.
type layerStats struct {
	ms     []float64 // duration of each span
	selfMs float64   // total duration minus the part child spans cover
	alloc  uint64
}

func (s *layerStats) count() int { return len(s.ms) }

func (s *layerStats) meanMs() float64 {
	if len(s.ms) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.ms {
		sum += v
	}
	return sum / float64(len(s.ms))
}

// byName groups the recorded spans. A span's self time is its duration minus
// its direct children's.
func (r *recorder) byName() map[string]*layerStats {
	out := map[string]*layerStats{}
	if r == nil {
		return out
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		st.ms = append(st.ms, ms(time.Duration(s.End-s.Start)))
		st.selfMs += ms(time.Duration(s.End - s.Start - child[s.ID]))
		st.alloc += s.Alloc
	}
	return out
}

// write stores the spans and their per-name self times as JSON at path.
func (r *recorder) write(path, workload string, seed int64) error {
	self := map[string]float64{}
	for name, st := range r.byName() {
		self[name] = st.selfMs
	}
	b, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMs   map[string]float64 `json:"selfMs"`
		Spans    []span             `json:"spans"`
	}{workload, seed, self, r.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
