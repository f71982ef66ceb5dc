package graph

import (
	"math"
	"math/rand"
	"strconv"
	"time"
)

// Synthetic ICC-graph workloads. The paper's applications top out at a
// few thousand classifications; stressing the cut engine beyond them
// needs graphs we can grow to 100k+ nodes while keeping the shape of a
// real inter-component communication graph: a heavy-tailed degree
// distribution (a few hub components — document roots, caches — talk to
// everything), pins from location constraints, pair-wise co-locations
// from non-remotable interfaces, and a sprinkle of free-floating
// components that never touch a terminal. Generation is fully seeded:
// the same SynthConfig always yields the identical graph, so benchmark
// runs are reproducible across machines and PRs.

// SynthConfig parameterizes a synthetic workload.
type SynthConfig struct {
	// Nodes is the component count (minimum 2).
	Nodes int
	// AvgDegree is the number of attachment edges per arriving node
	// (default 8). Preferential attachment makes the degree distribution
	// power-law.
	AvgDegree int
	// PinFraction of nodes get a location constraint, alternating client
	// and server (default 0.05).
	PinFraction float64
	// CoLocateFraction of nodes contribute a pair-wise co-location
	// constraint along an existing edge (default 0.02). Constraints that
	// would contradict the pins are skipped, so the instance is always
	// satisfiable.
	CoLocateFraction float64
	// FreeFraction of nodes form small chains detached from the main
	// component (default 0.01) — the free-floating components Coign
	// leaves on the client.
	FreeFraction float64
	// Seed drives the generator; equal seeds give equal graphs.
	Seed int64
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.Nodes < 2 {
		c.Nodes = 2
	}
	if c.AvgDegree <= 0 {
		c.AvgDegree = 8
	}
	if c.PinFraction == 0 {
		c.PinFraction = 0.05
	}
	if c.CoLocateFraction == 0 {
		c.CoLocateFraction = 0.02
	}
	if c.FreeFraction == 0 {
		c.FreeFraction = 0.01
	}
	return c
}

// synthName names synthetic component i.
func synthName(i int) string { return "c" + strconv.Itoa(i) }

// Synthesize builds a seeded synthetic ICC graph per the config. The
// result always passes Validate: pins and co-locations are installed with
// a union-find guard that skips contradictory constraints.
func Synthesize(cfg SynthConfig) *Graph {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := New()

	free := int(cfg.FreeFraction * float64(cfg.Nodes))
	main := cfg.Nodes - free
	if main < 2 {
		main = cfg.Nodes
		free = 0
	}
	for i := 0; i < cfg.Nodes; i++ {
		g.Node(synthName(i))
	}

	// Communication weight: exponentially distributed around a millisecond
	// mean — most interfaces chatter lightly, a few move bulk — rounded to
	// the nearest nanosecond, and at least one.
	weight := func() time.Duration {
		return max(1, time.Duration(math.Round(-math.Log(1-rng.Float64())*1e6)))
	}

	// Preferential attachment over the main component: each arriving node
	// links to endpoints of existing edges (probability proportional to
	// degree), with a uniform fallback for mixing.
	endpoints := make([]int32, 0, 2*main*cfg.AvgDegree)
	type edge struct{ a, b int32 }
	edges := make([]edge, 0, main*cfg.AvgDegree)
	addEdge := func(a, b int32) {
		if a == b {
			return
		}
		g.AddEdge(synthName(int(a)), synthName(int(b)), weight())
		endpoints = append(endpoints, a, b)
		edges = append(edges, edge{a, b})
	}
	addEdge(0, 1)
	for i := 2; i < main; i++ {
		k := cfg.AvgDegree
		if k > i {
			k = i
		}
		for e := 0; e < k; e++ {
			var target int32
			if rng.Intn(4) == 0 {
				target = int32(rng.Intn(i))
			} else {
				target = endpoints[rng.Intn(len(endpoints))]
			}
			addEdge(int32(i), target)
		}
	}

	// Free-floating chains among the trailing nodes.
	for i := main; i < cfg.Nodes; i++ {
		if (i-main)%4 != 0 {
			g.AddEdge(synthName(i-1), synthName(i), weight())
		}
	}

	// Pins, alternating sides, on main-component nodes only.
	pins := int(cfg.PinFraction * float64(main))
	if pins < 2 {
		pins = 2
	}
	side := make([]int8, cfg.Nodes)
	for i := range side {
		side[i] = -1
	}
	uf := newUnionFind(cfg.Nodes)
	for p := 0; p < pins; p++ {
		v := rng.Intn(main)
		if side[v] != -1 {
			continue
		}
		s := SourceSide
		if p%2 == 1 {
			s = SinkSide
		}
		g.Pin(synthName(v), s)
		side[v] = int8(s)
	}

	// Co-locations along existing edges, guarded against contradicting
	// the pins (transitively, via the same union-find Validate uses).
	welds := int(cfg.CoLocateFraction * float64(main))
	for c := 0; c < welds && len(edges) > 0; c++ {
		e := edges[rng.Intn(len(edges))]
		ra, rb := uf.find(int(e.a)), uf.find(int(e.b))
		if ra == rb {
			continue
		}
		sa, sb := side[ra], side[rb]
		if sa != -1 && sb != -1 && sa != sb {
			continue
		}
		uf.union(ra, rb)
		merged := sa
		if merged == -1 {
			merged = sb
		}
		side[uf.find(ra)] = merged
		g.CoLocate(synthName(int(e.a)), synthName(int(e.b)))
	}
	return g
}
