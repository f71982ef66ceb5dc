// Package profile defines the inter-component communication (ICC) profiles
// Coign collects during scenario-based profiling (paper §3.3's profiling
// logger): per classification pair, message summaries in exponentially
// growing size buckets; per classification, instance counts and an
// activation path; per method, call and state-write counts. A profile
// holds no per-instance detail: that lives only in the event trace
// (logger.Trace). The package also defines communication vectors and the
// dot-product correlation metric of paper §4.2, which classifier
// evaluation applies to vectors read from traces.
package profile

import (
	"math/bits"
	"slices"
)

// Message sizes are summarized into buckets whose ranges grow
// exponentially (paper §3.3: "successive ranges grow in size
// exponentially"), which keeps profile storage bounded regardless of
// execution length while preserving network independence: the analysis can
// later price each bucket under any network profile.

// BucketIndex returns the bucket for a message of the given size. Bucket 0
// holds empty messages; bucket k (k >= 1) holds sizes in [2^(k-1), 2^k).
func BucketIndex(size int) int {
	if size <= 0 {
		return 0
	}
	return bits.Len(uint(size))
}

// BucketRepresentative returns the size used to price messages in a
// bucket: the midpoint of its range.
func BucketRepresentative(idx int) int {
	if idx <= 0 {
		return 0
	}
	lo := 1 << (idx - 1)
	hi := 1 << idx
	return (lo + hi) / 2
}

// NumBuckets is a safe upper bound on bucket indices for 32-bit message
// sizes.
const NumBuckets = 33

// Bucket is one bucket of a histogram: Count messages of sizes in bucket
// Index.
type Bucket struct {
	Index int
	Count int64
}

// BucketCounts is a histogram of message counts per size bucket: the
// buckets that hold messages, in increasing Index order. A profile's
// summaries start with two slots per histogram carved from its slab (see
// Profile.slots), enough for most edges; a third bucket makes append move
// the histogram out rather than write into a neighbour's slots.
type BucketCounts []Bucket

// Add records n messages of the given byte size.
func (b *BucketCounts) Add(size int, n int64) {
	b.add(BucketIndex(size), n)
}

// add adds n messages to bucket idx, inserting it in order if new.
func (b *BucketCounts) add(idx int, n int64) {
	h := *b
	i := 0
	for i < len(h) && h[i].Index < idx {
		i++
	}
	if i < len(h) && h[i].Index == idx {
		h[i].Count += n
		return
	}
	*b = slices.Insert(h, i, Bucket{Index: idx, Count: n})
}

// Merge folds other into b.
func (b *BucketCounts) Merge(other BucketCounts) {
	for _, o := range other {
		b.add(o.Index, o.Count)
	}
}
