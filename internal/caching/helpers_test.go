package caching

// Helpers that only the tests use.

// Len returns the number of cached results.
func (c *Cache) Len() int { return len(c.entries) }
