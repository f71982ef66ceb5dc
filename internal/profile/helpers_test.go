package profile

// Helpers that only the tests use.

// Total returns the total message count.
func (b BucketCounts) Total() int64 {
	var t int64
	for _, n := range b {
		t += n
	}
	return t
}

// ApproxBytes returns the total bytes implied by bucket representatives.
func (b BucketCounts) ApproxBytes() int64 {
	var t int64
	for idx, n := range b {
		t += n * int64(BucketRepresentative(idx))
	}
	return t
}

// Clone returns a deep copy.
func (b BucketCounts) Clone() BucketCounts {
	c := make(BucketCounts, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}
