package graph

import (
	"math"
	"time"
)

// This file is the float64-seconds view of the graph, for the benchmark
// harness (bench/) alone; the next change to the benchmark moves bench/ to
// the nanosecond API and deletes it. CI fails on any other caller. seconds
// is a Cut's Cost under the names bench/ reads, equal since a cut's cost
// is its flow.
type seconds struct{ Weight, FlowValue float64 }

// EdgeWeight is EdgeCost in seconds.
func (g *Graph) EdgeWeight(a, b string) float64 { return g.EdgeCost(a, b).Seconds() }

// SetEdgeWeight is SetEdgeCost with w in seconds, rounded to the nearest
// ns: a positive w costs at least 1 ns, one past the int64 range (+Inf
// too) saturates at math.MaxInt64 so the cut reports ErrOverflow, and any
// other w (NaN too) deletes.
func (g *Graph) SetEdgeWeight(a, b string, w float64) {
	var d time.Duration
	switch ns := math.Round(w * 1e9); {
	case ns >= math.MaxInt64:
		d = math.MaxInt64
	case w > 0:
		d = max(1, time.Duration(ns))
	}
	g.SetEdgeCost(a, b, d)
}
