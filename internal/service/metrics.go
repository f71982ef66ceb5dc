package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"repro/internal/span"
)

// Metrics is a minimal Prometheus-text-format registry: counters and one
// stage-duration histogram per top-level stage of pipeline.Run, hand-rolled
// on the standard library. Counters and gauges are written sorted and the
// stages in run order, so scrapes are deterministic for a given state.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]float64
	// stages holds one histogram per stage, in the order first observed:
	// the run's stage order.
	stages []stageHistogram
}

// stageBuckets are the stage histogram's upper bounds in seconds, one list
// for every stage: from the tens of microseconds a small job's stage takes
// to multi-second suite sweeps.
var stageBuckets = [...]float64{1e-5, 5e-5, 1e-4, 5e-4, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30}

type stageHistogram struct {
	stage  string
	counts [len(stageBuckets)]uint64
	sum    float64
	count  uint64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]float64)}
}

// Inc bumps a counter by one.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Add bumps a counter by v.
func (m *Metrics) Add(name string, v float64) {
	m.mu.Lock()
	m.counters[name] += v
	m.mu.Unlock()
}

// ObserveStages records the duration of each top-level span of one
// pipeline run in its stage's histogram.
func (m *Metrics) ObserveStages(spans []span.Span) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sp := range spans {
		if sp.Parent >= 0 {
			continue
		}
		i := 0
		for i < len(m.stages) && m.stages[i].stage != sp.Name {
			i++
		}
		if i == len(m.stages) {
			m.stages = append(m.stages, stageHistogram{stage: sp.Name})
		}
		h := &m.stages[i]
		sec := (sp.End - sp.Start).Seconds()
		for j, b := range stageBuckets {
			if sec <= b {
				h.counts[j]++
			}
		}
		h.sum += sec
		h.count++
	}
}

// Write renders the registry in Prometheus text exposition format. gauges
// carries point-in-time values (queue depths) computed by the caller at
// scrape time.
func (m *Metrics) Write(w io.Writer, gauges map[string]float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	names := make([]string, 0, len(m.counters))
	for name := range m.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %g\n", name, name, m.counters[name]); err != nil {
			return err
		}
	}

	gnames := make([]string, 0, len(gauges))
	for name := range gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, gauges[name]); err != nil {
			return err
		}
	}

	const hist = "coign_stage_duration_seconds"
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", hist); err != nil {
		return err
	}
	for _, h := range m.stages {
		for i, b := range stageBuckets {
			le := strconv.FormatFloat(b, 'f', -1, 64) // 0.00001, not 1e-05
			if _, err := fmt.Fprintf(w, "%s_bucket{stage=%q,le=%q} %d\n", hist, h.stage, le, h.counts[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n%s_sum{stage=%q} %g\n%s_count{stage=%q} %d\n",
			hist, h.stage, h.count, hist, h.stage, h.sum, hist, h.stage, h.count); err != nil {
			return err
		}
	}
	return nil
}
