package graph

import (
	"fmt"
	"testing"
)

// Benchmarks for the cut engine over synthetic ICC workloads. The
// bench-cut CLI harness sweeps larger sizes and emits BENCH_graphcut.json;
// these testing.B benchmarks cover the same two implementations at sizes
// friendly to -bench on a laptop.

func benchSizes(b *testing.B, maxNodes int, cut func(*Graph) (*Cut, error)) {
	for _, n := range []int{1000, 5000, 20000} {
		if n > maxNodes {
			continue
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base := Synthesize(SynthConfig{Nodes: n, Seed: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := Synthesize(SynthConfig{Nodes: n, Seed: 1})
				b.StartTimer()
				c, err := cut(g)
				if err != nil {
					b.Fatal(err)
				}
				if c.Weight <= 0 {
					b.Fatalf("degenerate cut on %d-node workload", base.Len())
				}
			}
		})
	}
}

func BenchmarkMinCutHighestLabel(b *testing.B) {
	benchSizes(b, 20000, (*Graph).MinCut)
}

func BenchmarkMinCutEdmondsKarp(b *testing.B) {
	benchSizes(b, 5000, (*Graph).MinCutEdmondsKarp)
}
