package reach

// Helpers that only the tests use.

// UncoveredSites returns the statically possible activation sites no
// training scenario exercised.
func (c *Coverage) UncoveredSites() []Site {
	var out []Site
	for _, s := range c.Sites {
		if !s.Covered {
			out = append(out, s.Site)
		}
	}
	return out
}
