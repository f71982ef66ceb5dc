package graph

import (
	"math"
	"testing"
)

// FuzzCSRBuilder decodes arbitrary bytes into a sequence of graph
// operations (add-edge, pin, co-locate), stages them through the
// production CutArena.restage and layout, and checks the CSR network's
// structural invariants: the reverse-arc mapping is an
// involution, every arc's reverse lives in the target node's row, offsets
// are monotone and cover every arc exactly once, and capacities are
// non-negative. If the resulting instance validates, the production cut
// must also agree with the Edmonds–Karp oracle.
func FuzzCSRBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 10, 1, 2, 20, 0x40, 0, 0x41, 2, 0x80, 1, 2})
	f.Add([]byte{0, 0, 5, 3, 3, 0, 0x40, 7, 0x80, 7, 7})
	f.Add([]byte{9, 2, 255, 0x80, 9, 2, 0x41, 9, 0x40, 2})
	// Self-loop seed: decoded as raw arc pairs below, the leading (3,3)
	// triple stages a u==v pair straight into CutArena.layout — the corruption
	// path Graph ops can never reach because AddEdge/CoLocate filter
	// self-edges before staging.
	f.Add([]byte{3, 3, 50, 1, 2, 30, 5, 5, 99, 2, 3, 10})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Phase 1: the same bytes as raw csrArc pairs, u == v allowed, so
		// the staging-level self-loop filter is fuzzed directly. Dropping
		// self-loops must leave a network byte-identical to one staged
		// from the pre-filtered pair list.
		var raw, filtered []csrArc
		for i := 0; i+2 < len(data); i += 3 {
			p := csrArc{
				u: int32(data[i] % 8), v: int32(data[i+1] % 8),
				capUV: float64(data[i+2]) * 0.01, capVU: float64(data[i+2]) * 0.01,
			}
			raw = append(raw, p)
			if p.u != p.v {
				filtered = append(filtered, p)
			}
		}
		rawNet := layoutPairs(10, 8, 9, raw)
		cleanNet := layoutPairs(10, 8, 9, filtered)
		if len(rawNet.to) != len(cleanNet.to) {
			t.Fatalf("self-loop staging changed arc count: %d vs %d", len(rawNet.to), len(cleanNet.to))
		}
		for a := range rawNet.to {
			if rawNet.to[a] != cleanNet.to[a] || rawNet.rev[a] != cleanNet.rev[a] || rawNet.cap[a] != cleanNet.cap[a] {
				t.Fatalf("arc %d differs between raw and pre-filtered staging", a)
			}
			if int(rawNet.rev[rawNet.rev[a]]) != a {
				t.Fatalf("rev not an involution at arc %d", a)
			}
		}

		// Phase 2: the bytes as graph operations.
		g := New()
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
			case i+2 < len(data): // edge with weight from the third byte
				g.AddEdge(nodeOf(op), nodeOf(data[i+1]), float64(data[i+2])*0.01)
				i += 3
			default:
				i = len(data)
			}
		}

		g.settle()
		arena := NewCutArena()
		arena.restage(g, g.pin)
		net, inf := &arena.net, arena.inf
		if net.n != g.Len()+2 {
			t.Fatalf("node count %d, want %d", net.n, g.Len()+2)
		}
		checkCSRInvariants(t, net)
		for a := range net.to {
			if net.cap[a] < 0 || math.IsNaN(net.cap[a]) || net.cap[a] > inf {
				t.Fatalf("arc %d: capacity %v out of range", a, net.cap[a])
			}
		}

		if g.Validate() != nil {
			return
		}
		hl, err := g.MinCut()
		if err != nil {
			// Feasible pins/welds can still force an unsplittable pair
			// across the cut via a chain of pinned welds plus direct edges;
			// both algorithms must agree that is an error.
			if _, ekErr := g.MinCutEdmondsKarp(); ekErr == nil {
				t.Fatalf("hl failed (%v) but oracle succeeded", err)
			}
			return
		}
		ek, err := g.MinCutEdmondsKarp()
		if err != nil {
			t.Fatalf("hl succeeded but oracle failed: %v", err)
		}
		if math.Abs(hl.Weight-ek.Weight) > 1e-6*(1+hl.Weight) {
			t.Fatalf("weights diverge: hl=%v ek=%v", hl.Weight, ek.Weight)
		}
	})
}
