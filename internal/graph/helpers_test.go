package graph

import "sort"

// Helpers that only the tests use.

// HasNode reports whether the named node exists.
func (g *Graph) HasNode(name string) bool {
	_, ok := g.index[name]
	return ok
}

// AllOn returns the trivial assignment with every node on one side — the
// "default distribution" of a desktop application that runs entirely on
// the client (pinned nodes keep their pins).
func (g *Graph) AllOn(s Side) map[string]Side {
	assign := make(map[string]Side, g.Len())
	for i, name := range g.names {
		if p := g.pin[i]; p != unpinned {
			assign[name] = Side(p)
		} else {
			assign[name] = s
		}
	}
	return assign
}

// Count returns how many nodes landed on the given side.
func (c *Cut) Count(s Side) int {
	n := 0
	for _, side := range c.Assignment {
		if side == s {
			n++
		}
	}
	return n
}

// NodesOn returns the sorted names on a side.
func (c *Cut) NodesOn(s Side) []string {
	var out []string
	for i, side := range c.Assignment {
		if side == s {
			out = append(out, c.names[i])
		}
	}
	sort.Strings(out)
	return out
}
