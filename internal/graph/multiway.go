package graph

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/par"
)

// Multiway partitioning. The paper restricts itself to the exact two-way
// algorithm because multiterminal cuts are NP-hard [Dahlhaus et al.], but
// names multiway heuristics as the path to three or more machines. This
// file implements the classic isolation heuristic (2 - 2/k approximation):
// for each terminal, compute the exact two-way cut isolating it from the
// other terminals merged together, then discard the most expensive
// isolating cut and assign by the remaining ones.

// MultiwayTerminal pins a set of nodes to a named machine.
type MultiwayTerminal struct {
	Machine string
	Pinned  []string
}

// MultiwayCut assigns every node to one of the terminals' machines using
// the isolation heuristic. It requires at least two terminals; with
// exactly two it reduces to the exact minimum cut.
func (g *Graph) MultiwayCut(terminals []MultiwayTerminal) (map[string]string, time.Duration, error) {
	return g.MultiwayCutCtx(context.Background(), terminals)
}

// MultiwayCutCtx is MultiwayCut under a context: the per-terminal
// isolating cuts poll it, so a cancelled job aborts mid-heuristic.
func (g *Graph) MultiwayCutCtx(ctx context.Context, terminals []MultiwayTerminal) (map[string]string, time.Duration, error) {
	if len(terminals) < 2 {
		return nil, 0, fmt.Errorf("graph: multiway cut needs >= 2 terminals, got %d", len(terminals))
	}
	type isoCut struct {
		term   int
		cut    *Cut
		weight time.Duration
	}
	// The k isolating cuts share one topology and differ only in which
	// side each terminal's pins land on, so each is a cut of g through a
	// throwaway arena under a substituted pin array. The store is put in
	// order here, before the fan-out: the k goroutines only read g. Pinned
	// names the graph has never seen are skipped rather than interned: an
	// isolated pinned node cannot affect any cut, and the final
	// pin-override loop assigns it regardless.
	g.settle()
	terms := make([]int, len(terminals))
	for i := range terminals {
		terms[i] = i
	}
	cuts, err := par.Map(ctx, terms, func(ctx context.Context, ti int) (isoCut, error) {
		pin := make([]int8, g.Len())
		for i := range pin {
			pin[i] = unpinned
		}
		set := func(names []string, s Side) {
			for _, name := range names {
				if v, ok := g.index[name]; ok {
					pin[v] = int8(s)
				}
			}
		}
		set(terminals[ti].Pinned, SourceSide)
		for tj, other := range terminals {
			if tj != ti {
				set(other.Pinned, SinkSide)
			}
		}
		c, err := g.minCutArena(ctx, NewCutArena(), pin)
		if err != nil {
			return isoCut{}, fmt.Errorf("graph: isolating cut for %s: %w", terminals[ti].Machine, err)
		}
		return isoCut{term: ti, cut: c, weight: c.Cost}, nil
	})
	if err != nil {
		return nil, 0, err
	}

	// Discard the heaviest isolating cut: its terminal becomes the default
	// owner of nodes not isolated with anyone else. Ties break by terminal
	// index — an explicit contract, not an artifact of par.Map returning
	// results in input order — so equal-weight isolating cuts produce the
	// same assignment run after run.
	sort.SliceStable(cuts, func(i, j int) bool {
		if cuts[i].weight != cuts[j].weight {
			return cuts[i].weight < cuts[j].weight
		}
		return cuts[i].term < cuts[j].term
	})
	defaultTerm := cuts[len(cuts)-1].term
	kept := cuts[:len(cuts)-1]

	assign := make(map[string]string, g.Len())
	for i := range g.names {
		assign[g.names[i]] = terminals[defaultTerm].Machine
	}
	// Earlier (cheaper) cuts win conflicts.
	for i := len(kept) - 1; i >= 0; i-- {
		c := kept[i]
		for v, side := range c.cut.Assignment {
			if side == SourceSide {
				assign[g.names[v]] = terminals[c.term].Machine
			}
		}
	}
	// Terminal pins always hold.
	for _, term := range terminals {
		for _, n := range term.Pinned {
			assign[n] = term.Machine
		}
	}

	// Total weight of edges crossing machine boundaries.
	w, welds := g.crossing(func(lo, hi int) bool { return assign[g.names[lo]] != assign[g.names[hi]] })
	if welds > 0 {
		return nil, 0, fmt.Errorf("graph: multiway assignment crosses a co-location constraint")
	}
	return assign, w, nil
}
