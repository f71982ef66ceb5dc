package graph

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// CheckScaleAndPermute is checkScaleAndPermute for the external test
// package, which cuts graphs that the pipeline builds.
var CheckScaleAndPermute = checkScaleAndPermute

// scaled returns a copy of g with every edge weight multiplied by k.
func scaled(g *Graph, k time.Duration) *Graph {
	c := g.clone()
	for i := range c.ew {
		c.ew[i] *= k
	}
	return c
}

// permuted rebuilds g with its nodes interned in the same order, and its
// edges, welds and pins added in a seeded random order: every weight split
// in two AddEdge calls, one each way round, every weld added twice.
func permuted(g *Graph, rng *rand.Rand) *Graph {
	g.settle()
	type op struct {
		a, b string
		w    time.Duration // 0: a weld
	}
	var ops []op
	for i, k := range g.ekey {
		lo, hi := k.nodes()
		part := 1 + time.Duration(rng.Int63n(int64(g.ew[i])))
		ops = append(ops, op{g.names[lo], g.names[hi], part})
		if rest := g.ew[i] - part; rest > 0 {
			ops = append(ops, op{g.names[hi], g.names[lo], rest})
		}
	}
	for _, k := range g.coloc {
		lo, hi := k.nodes()
		ops = append(ops, op{g.names[lo], g.names[hi], 0}, op{g.names[hi], g.names[lo], 0})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	c := New()
	for _, n := range g.names {
		c.Node(n)
	}
	for _, o := range ops {
		if o.w == 0 {
			c.CoLocate(o.a, o.b)
		} else {
			c.AddEdge(o.a, o.b, o.w)
		}
	}
	for v, p := range g.pin {
		if p != unpinned {
			c.Pin(g.names[v], Side(p))
		}
	}
	return c
}

// checkScaleAndPermute holds g's minimum cut to two metamorphic
// properties, exactly. Scaling every edge weight by k ∈ {2, 3, 1000}
// leaves the assignment identical and multiplies the cost by k, on a cold
// cut and on a warm re-cut through the arena that cut g. Inserting the
// same edges and welds in another order, a pair's weight in several parts,
// settles to the identical store and cuts identically.
func checkScaleAndPermute(t *testing.T, name string, g *Graph) {
	t.Helper()
	ctx := context.Background()
	a := NewCutArena()
	base, err := g.MinCutArena(ctx, a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	same := func(step string, c *Cut, cost time.Duration) {
		t.Helper()
		if !slices.Equal(c.Assignment, base.Assignment) || c.Cost != cost {
			t.Fatalf("%s %s: cost %v, want %v; assignment equal: %v",
				name, step, c.Cost, cost, slices.Equal(c.Assignment, base.Assignment))
		}
	}
	for _, k := range []time.Duration{2, 3, 1000} {
		s := scaled(g, k)
		cold, err := s.MinCut()
		if err != nil {
			t.Fatalf("%s ×%d: %v", name, k, err)
		}
		same(fmt.Sprintf("×%d cold", k), cold, k*base.Cost)
		warm, err := s.MinCutArena(ctx, a)
		if err != nil {
			t.Fatalf("%s ×%d warm: %v", name, k, err)
		}
		same(fmt.Sprintf("×%d warm", k), warm, k*base.Cost)
	}
	p := permuted(g, rand.New(rand.NewSource(int64(len(g.ekey)))))
	p.settle()
	if !slices.Equal(p.ekey, g.ekey) || !slices.Equal(p.ew, g.ew) || !slices.Equal(p.coloc, g.coloc) || !slices.Equal(p.pin, g.pin) {
		t.Fatalf("%s: the permuted insertion settled to another store", name)
	}
	c, err := p.MinCut()
	if err != nil {
		t.Fatalf("%s permuted: %v", name, err)
	}
	same("permuted", c, base.Cost)
}

// TestPropertyScaleAndPermute runs checkScaleAndPermute on generated
// workloads; the pipeline's graphs of every synthetic family get the same
// check in TestFamilyGraphsScaleAndPermute.
func TestPropertyScaleAndPermute(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{200, 3000} {
			checkScaleAndPermute(t, fmt.Sprintf("synth n=%d seed=%d", n, seed), Synthesize(SynthConfig{Nodes: n, Seed: seed}))
		}
	}
}
