package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/graph"
)

// The cut-engine benchmark harness: synthetic ICC graphs from
// graph.Synthesize, the production CSR highest-label core timed against
// (up to a size cap) the Edmonds–Karp oracle, with every weight
// cross-checked. `coign bench-cut`
// drives it and writes BENCH_graphcut.json; CI runs a small-size smoke of
// the same harness and fails on any oracle divergence.

// CutBenchConfig parameterizes a benchmark run.
type CutBenchConfig struct {
	// Sizes are the node counts to sweep (default 1k..100k).
	Sizes []int
	// Seed drives the workload generator; equal seeds give equal graphs.
	Seed int64
	// AvgDegree forwards to graph.SynthConfig (zero means that config's
	// default).
	AvgDegree int
	// OracleMax caps the sizes the Edmonds–Karp oracle runs at: EK is
	// O(V·E²) and already needs minutes at 30k nodes. 0 means 30000.
	OracleMax int
	// Repeat is how many times each timed algorithm runs per size; the
	// fastest and the mean run are reported separately (default 3).
	Repeat int
}

func (c CutBenchConfig) withDefaults() CutBenchConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 3000, 10000, 30000, 100000, 300000, 1000000}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OracleMax == 0 {
		c.OracleMax = 30000
	}
	if c.Repeat <= 0 {
		c.Repeat = 3
	}
	return c
}

// CutBenchRow is one size point of the sweep.
type CutBenchRow struct {
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	Pins        int     `json:"pins"`
	CoLocations int     `json:"colocations"`
	CutWeight   float64 `json:"cut_weight"`

	// NewNS is the production CSR highest-label core's wall time
	// (best of Repeat), in nanoseconds, with NewNSMean the mean of the
	// same runs — reported separately so a cold first run cannot be
	// folded invisibly into one number; NewAllocBytes its total heap
	// allocation for one build+cut.
	NewNS         int64  `json:"new_ns"`
	NewNSMean     int64  `json:"new_ns_mean"`
	NewAllocBytes uint64 `json:"new_alloc_bytes"`

	// WarmNS is an arena-backed re-cut of the identical graph (topology
	// and weights unchanged since the arena's previous cut): the layout
	// is reused, no solver runs and the cut is read off the last solve,
	// so this bounds the per-window cost of adaptive repartitioning from
	// below. Best of Repeat; WarmNSMean the mean.
	WarmNS     int64 `json:"warm_ns"`
	WarmNSMean int64 `json:"warm_ns_mean"`
	// WarmPerturbedNS is an arena-backed re-cut after ~1% of edge weights
	// moved — the adaptive re-pricing shape. Best of Repeat rounds (each
	// round perturbs afresh); WarmPerturbedNSMean the mean. Every round's
	// warm cut is cross-checked against a fresh cold cut of the perturbed
	// graph, and against the Edmonds–Karp oracle at sizes <= OracleMax.
	WarmPerturbedNS     int64 `json:"warm_perturbed_ns"`
	WarmPerturbedNSMean int64 `json:"warm_perturbed_ns_mean"`
	// WarmSpeedup is NewNS / WarmNS: how many times cheaper an
	// unchanged-topology re-cut is than a cold build+cut.
	WarmSpeedup float64 `json:"warm_speedup_cold_over_warm"`

	// OracleNS is the Edmonds–Karp time; zero when the size cap skipped it.
	OracleNS int64 `json:"oracle_ns"`

	// WeightsAgree is true when every algorithm that ran returned the
	// same cut cost, exactly.
	WeightsAgree bool `json:"weights_agree"`

	// Replicated is how many components the replication-aware variant
	// cloned (a deterministic ~1% sample, minus pinned/welded nodes);
	// ReplWeight and ReplNS are the cut weight and time on the replicated
	// network. The harness fails if ReplWeight exceeds CutWeight:
	// replication only removes edges, so the cut can never get costlier.
	Replicated int     `json:"replicated"`
	ReplWeight float64 `json:"repl_weight"`
	ReplNS     int64   `json:"repl_ns"`
}

// benchSchema names the row layout; bump it whenever CutBenchRow's JSON
// fields change meaning so downstream readers can dispatch on it.
const benchSchema = "coign-bench-graphcut/3"

// benchColumns describes every row field in the emitted report, making
// the JSON self-describing: a reader never has to reverse-engineer what
// a timing column includes from the harness source.
func benchColumns() map[string]string {
	return map[string]string{
		"nodes":                       "graph size (nodes)",
		"edges":                       "distinct undirected edges",
		"pins":                        "terminal-pinned nodes",
		"colocations":                 "pair-wise co-location welds",
		"cut_weight":                  "minimum cut weight (seconds of communication)",
		"new_ns":                      "cold build+cut, CSR highest-label, best of `repeat` runs (ns)",
		"new_ns_mean":                 "cold build+cut, mean of the same runs (ns)",
		"new_alloc_bytes":             "heap allocated by one cold build+cut",
		"warm_ns":                     "arena re-cut, unchanged: served from the last solve, best of `repeat` (ns)",
		"warm_ns_mean":                "arena re-cut, unchanged, mean (ns)",
		"warm_perturbed_ns":           "arena warm re-cut after ~1% weight perturbation, best of `repeat` rounds (ns)",
		"warm_perturbed_ns_mean":      "arena warm re-cut after perturbation, mean (ns)",
		"warm_speedup_cold_over_warm": "new_ns / warm_ns",
		"oracle_ns":                   "Edmonds-Karp build+cut (ns, 0 = skipped)",
		"weights_agree":               "every algorithm that ran returned the same cut weight",
		"replicated":                  "components cloned by the replication-aware variant",
		"repl_weight":                 "cut weight on the replicated network",
		"repl_ns":                     "cold build+cut on the replicated network, best of `repeat` (ns)",
	}
}

// CutBenchReport is the full benchmark output, serialized to
// BENCH_graphcut.json.
type CutBenchReport struct {
	Schema    string            `json:"schema"`
	Columns   map[string]string `json:"columns"`
	Seed      int               `json:"seed"`
	OracleMax int               `json:"oracle_max_nodes"`
	Repeat    int               `json:"repeat"`
	Rows      []CutBenchRow     `json:"rows"`
}

// timeCut runs fn Repeat times on freshly synthesized copies of the
// workload and returns the fastest and mean wall times plus the last cut.
func timeCut(repeat int, mk func() *graph.Graph, cut func(*graph.Graph) (*graph.Cut, error)) (time.Duration, time.Duration, *graph.Cut, error) {
	best := time.Duration(math.MaxInt64)
	var total time.Duration
	var last *graph.Cut
	for r := 0; r < repeat; r++ {
		g := mk()
		start := time.Now()
		c, err := cut(g)
		elapsed := time.Since(start)
		if err != nil {
			return 0, 0, nil, err
		}
		if elapsed < best {
			best = elapsed
		}
		total += elapsed
		last = c
	}
	return best, total / time.Duration(repeat), last, nil
}

// RunCutBench sweeps the configured sizes. Any weight divergence between
// the production core and an oracle that ran is an error — the benchmark
// doubles as a correctness gate.
func RunCutBench(cfg CutBenchConfig, progress io.Writer) (*CutBenchReport, error) {
	cfg = cfg.withDefaults()
	rep := &CutBenchReport{
		Schema:    benchSchema,
		Columns:   benchColumns(),
		Seed:      int(cfg.Seed),
		OracleMax: cfg.OracleMax,
		Repeat:    cfg.Repeat,
	}
	ctx := context.Background()
	for _, n := range cfg.Sizes {
		mk := func() *graph.Graph {
			return graph.Synthesize(graph.SynthConfig{
				Nodes:     n,
				AvgDegree: cfg.AvgDegree,
				Seed:      cfg.Seed,
			})
		}
		g := mk()
		row := CutBenchRow{
			Nodes:       g.Len(),
			Edges:       g.Edges(),
			Pins:        g.Pins(),
			CoLocations: g.CoLocations(),
		}
		if progress != nil {
			fmt.Fprintf(progress, "n=%d (%d edges): highest-label...", row.Nodes, row.Edges)
		}

		// Allocation footprint of one build+cut on the production path.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		warm, err := g.MinCut()
		if err != nil {
			return nil, fmt.Errorf("bench-cut: n=%d: %w", n, err)
		}
		runtime.ReadMemStats(&after)
		row.NewAllocBytes = after.TotalAlloc - before.TotalAlloc
		row.CutWeight = warm.Cost.Seconds()

		newT, newMean, newCut, err := timeCut(cfg.Repeat, mk, (*graph.Graph).MinCut)
		if err != nil {
			return nil, fmt.Errorf("bench-cut: n=%d: %w", n, err)
		}
		row.NewNS = newT.Nanoseconds()
		row.NewNSMean = newMean.Nanoseconds()
		row.WeightsAgree = true

		// Warm re-cut columns: one arena, one cold staging cut, then timed
		// re-cuts. The unchanged sweep bounds the no-op re-cut (layout
		// reuse, the last solve's cut re-read); the perturbed sweep re-prices
		// ~1% of the edges each round, the adaptive-repartitioning shape.
		// Every warm cost is checked against the cold result — the
		// harness is a correctness gate first.
		if progress != nil {
			fmt.Fprintf(progress, " warm...")
		}
		if err := runWarmBench(ctx, cfg, g, newCut, &row); err != nil {
			return rep, err
		}

		if n <= cfg.OracleMax {
			if progress != nil {
				fmt.Fprintf(progress, " edmonds-karp...")
			}
			ekT, _, ekCut, err := timeCut(1, mk, (*graph.Graph).MinCutEdmondsKarp)
			if err != nil {
				return nil, fmt.Errorf("bench-cut: n=%d oracle: %w", n, err)
			}
			row.OracleNS = ekT.Nanoseconds()
			if ekCut.Cost != newCut.Cost {
				return rep, fmt.Errorf("bench-cut: n=%d: oracle cost %v != %v", n, ekCut.Cost, newCut.Cost)
			}
		}

		// Replication-aware cut on the same workload: clone the sampled
		// components, drop their ICC edges, re-cut. Timed on the reduced
		// network so the column compares cut cost, not clone setup. A
		// replicated cut above the plain one is an engine bug — the copy
		// has a strict subset of the edges.
		if progress != nil {
			fmt.Fprintf(progress, " replicated...")
		}
		eligible := replicationCandidates(g)
		_, cloned := g.Replicate(eligible)
		row.Replicated = len(cloned)
		mkRepl := func() *graph.Graph {
			rg, _ := mk().Replicate(eligible)
			return rg
		}
		replT, _, replCut, err := timeCut(cfg.Repeat, mkRepl, (*graph.Graph).MinCut)
		if err != nil {
			return nil, fmt.Errorf("bench-cut: n=%d replicated: %w", n, err)
		}
		row.ReplNS = replT.Nanoseconds()
		row.ReplWeight = replCut.Cost.Seconds()
		if replCut.Cost > newCut.Cost {
			return rep, fmt.Errorf("bench-cut: n=%d: replicated cut cost %v exceeds plain %v", n, replCut.Cost, newCut.Cost)
		}

		if progress != nil {
			fmt.Fprintf(progress, " done (%.1fms)\n", float64(row.NewNS)/1e6)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// runWarmBench fills the warm-start columns of one row: timed re-cuts of
// g through a single arena, first with nothing changed, then with ~1% of
// the edge weights re-priced per round. It mutates g's weights and leaves
// them perturbed; callers must not reuse g's weights afterwards.
func runWarmBench(ctx context.Context, cfg CutBenchConfig, g *graph.Graph, newCut *graph.Cut, row *CutBenchRow) error {
	n := row.Nodes
	arena := graph.NewCutArena()
	coldCut, err := g.MinCutArena(ctx, arena)
	if err != nil {
		return fmt.Errorf("bench-cut: n=%d warm staging: %w", n, err)
	}
	if coldCut.Cost != newCut.Cost {
		return fmt.Errorf("bench-cut: n=%d: arena cold cost %v != %v", n, coldCut.Cost, newCut.Cost)
	}

	best := time.Duration(math.MaxInt64)
	var total time.Duration
	for r := 0; r < cfg.Repeat; r++ {
		start := time.Now()
		c, err := g.MinCutArena(ctx, arena)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("bench-cut: n=%d warm: %w", n, err)
		}
		if c.Cost != newCut.Cost {
			return fmt.Errorf("bench-cut: n=%d: warm cost %v != cold %v", n, c.Cost, newCut.Cost)
		}
		if elapsed < best {
			best = elapsed
		}
		total += elapsed
	}
	row.WarmNS = best.Nanoseconds()
	row.WarmNSMean = (total / time.Duration(cfg.Repeat)).Nanoseconds()
	if row.WarmNS > 0 {
		row.WarmSpeedup = float64(row.NewNS) / float64(row.WarmNS)
	}

	// Perturbed rounds: re-price ~1% of the edges each round (the rng is
	// seeded from the workload seed, so the sweep reproduces), warm
	// re-cut, and cross-check against an independent cold cut of the now
	// perturbed graph — weights and the exact assignment, which phase-1
	// push-relabel pins to the t-minimal minimum cut regardless of start.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x77a7))
	names := g.EdgeNames()
	var warmCut *graph.Cut
	best = time.Duration(math.MaxInt64)
	total = 0
	for r := 0; r < cfg.Repeat; r++ {
		for _, e := range names {
			if rng.Float64() < 0.01 {
				g.SetEdgeCost(e[0], e[1], max(1, time.Duration(float64(g.EdgeCost(e[0], e[1]))*(0.5+rng.Float64()))))
			}
		}
		start := time.Now()
		warmCut, err = g.MinCutArena(ctx, arena)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("bench-cut: n=%d warm perturbed: %w", n, err)
		}
		coldCut, err := g.MinCut()
		if err != nil {
			return fmt.Errorf("bench-cut: n=%d cold perturbed: %w", n, err)
		}
		if warmCut.Cost != coldCut.Cost {
			return fmt.Errorf("bench-cut: n=%d round %d: perturbed warm cost %v != cold %v", n, r, warmCut.Cost, coldCut.Cost)
		}
		for i, side := range coldCut.Assignment {
			if warmCut.Assignment[i] != side {
				return fmt.Errorf("bench-cut: n=%d round %d: perturbed warm and cold cuts assign %s differently", n, r, g.Name(i))
			}
		}
		if elapsed < best {
			best = elapsed
		}
		total += elapsed
	}
	row.WarmPerturbedNS = best.Nanoseconds()
	row.WarmPerturbedNSMean = (total / time.Duration(cfg.Repeat)).Nanoseconds()

	// The perturbed end state goes through the full oracle at small sizes.
	if n <= cfg.OracleMax {
		ekCut, err := g.MinCutEdmondsKarp()
		if err != nil {
			return fmt.Errorf("bench-cut: n=%d perturbed oracle: %w", n, err)
		}
		if warmCut.Cost != ekCut.Cost {
			return fmt.Errorf("bench-cut: n=%d: perturbed warm cost %v != oracle %v", n, warmCut.Cost, ekCut.Cost)
		}
	}
	return nil
}

// replicationCandidates picks every 100th component, in node insertion
// order, as replication-eligible — a deterministic ~1% sample that is
// stable for a given seed and size. Pinned and welded candidates are
// skipped by Replicate itself.
func replicationCandidates(g *graph.Graph) []string {
	names := g.NodeNames()
	out := make([]string, 0, len(names)/100+1)
	for i := 0; i < len(names); i += 100 {
		out = append(out, names[i])
	}
	return out
}

// WriteJSON serializes the report (indented, trailing newline).
func (r *CutBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintCutBench renders the sweep as a table. The repl-cut column is the
// replicated cut weight as a fraction of the plain one — how much of the
// communication cost vanishes when the sampled components are cloned.
func PrintCutBench(w io.Writer, rep *CutBenchReport) {
	fmt.Fprintf(w, "%8s %9s %12s %12s %12s %8s %12s %10s %6s %6s %12s %9s\n",
		"nodes", "edges", "hi-label", "warm", "warm-pert", "warm-x", "edmonds-k",
		"alloc", "agree", "repl", "repl-time", "repl-cut")
	ms := func(ns int64) string {
		if ns == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	}
	for _, r := range rep.Rows {
		warmX := "-"
		if r.WarmSpeedup > 0 {
			warmX = fmt.Sprintf("%.1fx", r.WarmSpeedup)
		}
		frac := "-"
		if r.CutWeight > 0 {
			frac = fmt.Sprintf("%.3f", r.ReplWeight/r.CutWeight)
		}
		fmt.Fprintf(w, "%8d %9d %12s %12s %12s %8s %12s %9.1fM %6v %6d %12s %9s\n",
			r.Nodes, r.Edges, ms(r.NewNS), ms(r.WarmNS), ms(r.WarmPerturbedNS), warmX,
			ms(r.OracleNS), float64(r.NewAllocBytes)/1e6, r.WeightsAgree,
			r.Replicated, ms(r.ReplNS), frac)
	}
}
