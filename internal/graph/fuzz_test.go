package graph

import (
	"context"
	"testing"
	"time"
)

// FuzzCSRBuilder decodes arbitrary bytes into a sequence of graph
// operations (add-edge, re-price, pin, co-locate) and, after every one,
// checks that the store holds only lo < hi keys (the layout lays pairs out
// straight from the store and relies on it) and cuts the graph through one
// long-lived CutArena, so restages, cold rewrites and warm rewrites all
// run. After every cut the arena's CSR network must keep its structural
// invariants — the reverse-arc mapping is an involution, every arc's
// reverse lives in the target node's row, offsets are monotone and cover
// every arc exactly once, start capacities are non-negative and at most the
// infinity proxy — and the cut must cost what the Edmonds–Karp oracle's
// does, each assignment priced at that cost.
func FuzzCSRBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 10, 1, 2, 20, 0x40, 0, 0x41, 2, 0x80, 1, 2})
	f.Add([]byte{0, 0, 5, 3, 3, 0, 0x40, 7, 0x80, 7, 7})
	f.Add([]byte{9, 2, 255, 0x80, 9, 2, 0x41, 9, 0x40, 2})
	// Two minimum cuts tie (n0-n1 and n1-n2 both cost 100ms): the
	// extractors may put n1 on different sides.
	f.Add([]byte{0, 1, 10, 1, 2, 10, 0x40, 0, 0x41, 2})
	// Self-edges at the door: (3,3) and (5,5) must never reach the store.
	f.Add([]byte{3, 3, 50, 1, 2, 30, 5, 5, 99, 2, 3, 10})

	f.Fuzz(func(t *testing.T, data []byte) {
		g := New()
		arena := NewCutArena()
		nodeOf := func(b byte) string { return synthName(int(b % 16)) }
		for i := 0; i+1 < len(data); {
			op := data[i]
			switch {
			case op == 0x40 || op == 0x41: // pin client / server
				g.Pin(nodeOf(data[i+1]), Side(op&1))
				i += 2
			case op == 0x80 && i+2 < len(data): // co-locate
				g.CoLocate(nodeOf(data[i+1]), nodeOf(data[i+2]))
				i += 3
			case op == 0xC0 && i+3 < len(data): // re-price; weight 0 deletes
				g.SetEdgeCost(nodeOf(data[i+1]), nodeOf(data[i+2]), time.Duration(data[i+3])*10*time.Millisecond)
				i += 4
			case i+2 < len(data): // edge with weight from the third byte
				g.AddEdge(nodeOf(op), nodeOf(data[i+1]), time.Duration(data[i+2])*10*time.Millisecond)
				i += 3
			default:
				i = len(data)
			}
			for _, keys := range [][]pairKey{g.ekey, g.coloc} {
				for _, k := range keys {
					if lo, hi := k.nodes(); lo >= hi {
						t.Fatalf("store key (%d, %d) after op %#x", lo, hi, op)
					}
				}
			}
			cutAgainstOracle(t, g, arena)
		}
	})
}

// cutAgainstOracle cuts a valid g through the arena, checks the arena's
// network, and compares the cut with the Edmonds–Karp oracle's.
func cutAgainstOracle(t *testing.T, g *Graph, arena *CutArena) {
	t.Helper()
	if g.Validate() != nil {
		return
	}
	hl, err := g.MinCutArena(context.Background(), arena)
	net := &arena.net
	if net.n != g.Len()+2 {
		t.Fatalf("node count %d, want %d", net.n, g.Len()+2)
	}
	checkCSRInvariants(t, net)
	for a, c := range arena.capStart {
		if c < 0 || c > arena.inf {
			t.Fatalf("arc %d: capacity %v out of range", a, c)
		}
	}
	ek, ekErr := g.MinCutEdmondsKarp()
	if err != nil || ekErr != nil {
		// Feasible pins/welds can still force an unsplittable pair across
		// the cut via a chain of pinned welds plus direct edges; both
		// algorithms must agree that is an error.
		if (err == nil) != (ekErr == nil) {
			t.Fatalf("hl error %v, oracle error %v", err, ekErr)
		}
		return
	}
	if hl.Cost != ek.Cost {
		t.Fatalf("cuts diverge: hl=%v ek=%v", hl.Cost, ek.Cost)
	}
	// When several minimum cuts tie the two extractors pick different
	// ones (the arena the largest source side, the oracle the smallest),
	// so the assignments are held to their price, not to each other.
	for _, c := range []*Cut{hl, ek} {
		assign := make(map[string]Side, g.Len())
		for i, side := range c.Assignment {
			assign[g.Name(i)] = side
		}
		if cost, welds := g.EvaluateAssignmentDetail(assign); cost != hl.Cost || welds != 0 {
			t.Fatalf("assignment prices %v with %d split welds, want %v and none", cost, welds, hl.Cost)
		}
	}
}
