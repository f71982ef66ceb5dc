package profile

// Helpers that only the tests use.

// Total returns the total message count.
func (b BucketCounts) Total() int64 {
	var t int64
	for _, x := range b {
		t += x.Count
	}
	return t
}

// ApproxBytes returns the total bytes implied by bucket representatives.
func (b BucketCounts) ApproxBytes() int64 {
	var t int64
	for _, x := range b {
		t += x.Count * int64(BucketRepresentative(x.Index))
	}
	return t
}

// Count returns the count of bucket idx, 0 when it holds none.
func (b BucketCounts) Count(idx int) int64 {
	for _, x := range b {
		if x.Index == idx {
			return x.Count
		}
	}
	return 0
}

// TotalInstances returns the number of instantiations recorded across
// classifications.
func (p *Profile) TotalInstances() int64 {
	var t int64
	for _, ci := range p.Classifications {
		t += ci.Instances
	}
	return t
}
