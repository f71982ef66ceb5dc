package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"
)

// Profile is the output of the network profiler: sampled mean message
// times at representative sizes. The profile analysis engine predicts the
// cost of an arbitrary message by piecewise-linear interpolation, so
// predictions carry a small sampling error relative to the true network —
// one of the real sources of the predicted-vs-measured gap in Table 5.
//
// A profile from Sampled is shared by every session that asks for the same
// sample: it must not be modified.
type Profile struct {
	Name   string
	Points []ProfilePoint // sorted by ascending size
}

// ProfilePoint is the sampled mean one-way time for one message size.
type ProfilePoint struct {
	Size int
	Time time.Duration
}

// DefaultSampleSizes are the representative DCOM message sizes the profiler
// measures, spanning null RPCs to bulk transfers.
var DefaultSampleSizes = []int{0, 64, 256, 1024, 4096, 16384, 65536, 262144}

// MeasureFunc observes the one-way time of a single message of the given
// payload size, as a simulated model's jittered message time
// (Model.SampleMessageTime) does.
type MeasureFunc func(size int) time.Duration

// Sample builds a profile by taking `samples` observations at each size and
// recording the trimmed mean (drop min and max when samples >= 4, as a
// cheap robust estimator against scheduling outliers).
func Sample(name string, measure MeasureFunc, sizes []int, samples int) (*Profile, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("netsim: no sample sizes")
	}
	if samples < 1 {
		return nil, fmt.Errorf("netsim: samples must be positive, got %d", samples)
	}
	p := &Profile{Name: name, Points: make([]ProfilePoint, 0, len(sizes))}
	sorted := slices.Clone(sizes)
	slices.Sort(sorted)
	obs := make([]time.Duration, samples)
	for _, sz := range sorted {
		for i := range obs {
			obs[i] = measure(sz)
		}
		p.Points = append(p.Points, ProfilePoint{Size: sz, Time: trimmedMean(obs)})
	}
	return p, nil
}

// sampledSlots is how many network samples a process keeps. A session's
// seed comes from its caller (a service job's from the request), so the
// cache is a fixed ring, never a map that grows with the seeds it sees.
const sampledSlots = 8

// sampleKey is what a network sample is a function of: the model's value
// (not its address), the session seed and the observations per size.
type sampleKey struct {
	model   Model
	seed    int64
	samples int
}

// sampled is the process's ring of network samples; next is the oldest
// slot, the one the next miss overwrites.
var sampled struct {
	sync.Mutex
	keys  [sampledSlots]sampleKey
	profs [sampledSlots]*Profile
	next  int
}

// Sampled is the network profiler's output for a session with the given
// seed: samples jittered observations of m at each of DefaultSampleSizes,
// drawn from a source seeded with seed+7, kept as trimmed means. The
// sample is a pure function of m's value, seed and samples, so the process
// takes it once and hands every later caller the same *Profile, which must
// not be modified.
func Sampled(m *Model, seed int64, samples int) (*Profile, error) {
	key := sampleKey{model: *m, seed: seed, samples: samples}
	sampled.Lock()
	hit := findSampled(&key)
	sampled.Unlock()
	if hit != nil {
		return hit, nil
	}
	// Draw from a copy of the key's model: the stored sample is the key's
	// even if *m changes meanwhile, and key stays off the heap.
	model := key.model
	rng := rand.New(rand.NewSource(seed + 7))
	p, err := Sample(model.Name, func(sz int) time.Duration {
		return model.SampleMessageTime(sz, rng)
	}, DefaultSampleSizes, samples)
	if err != nil {
		return nil, err
	}
	sampled.Lock()
	defer sampled.Unlock()
	// A concurrent miss on the same key may have stored its sample while
	// this one was drawn; hand out the stored one so the sample is shared.
	if hit := findSampled(&key); hit != nil {
		return hit, nil
	}
	sampled.keys[sampled.next] = key
	sampled.profs[sampled.next] = p
	sampled.next = (sampled.next + 1) % sampledSlots
	return p, nil
}

// findSampled returns the stored sample for key, or nil. The caller holds
// sampled's lock.
func findSampled(key *sampleKey) *Profile {
	for i := range sampled.keys {
		if sampled.profs[i] != nil && sampled.keys[i] == *key {
			return sampled.profs[i]
		}
	}
	return nil
}

func trimmedMean(obs []time.Duration) time.Duration {
	if len(obs) == 0 {
		return 0
	}
	slices.Sort(obs)
	lo, hi := 0, len(obs)
	if len(obs) >= 4 {
		lo, hi = 1, len(obs)-1
	}
	var sum time.Duration
	for _, o := range obs[lo:hi] {
		sum += o
	}
	return sum / time.Duration(hi-lo)
}

// MessageTime predicts the one-way cost of a message of the given size by
// piecewise-linear interpolation between sampled points, extrapolating the
// last segment's slope beyond the largest sample.
func (p *Profile) MessageTime(bytes int) time.Duration {
	if len(p.Points) == 0 {
		return 0
	}
	if bytes < 0 {
		bytes = 0
	}
	pts := p.Points
	if bytes <= pts[0].Size {
		return pts[0].Time
	}
	for i := 1; i < len(pts); i++ {
		if bytes <= pts[i].Size {
			return lerp(pts[i-1], pts[i], bytes)
		}
	}
	if len(pts) == 1 {
		return pts[0].Time
	}
	// Extrapolate using the final segment's marginal cost per byte.
	a, b := pts[len(pts)-2], pts[len(pts)-1]
	return lerp(a, b, bytes)
}

func lerp(a, b ProfilePoint, x int) time.Duration {
	if b.Size == a.Size {
		return b.Time
	}
	frac := float64(x-a.Size) / float64(b.Size-a.Size)
	return a.Time + time.Duration(frac*float64(b.Time-a.Time))
}

// ExactProfile builds a profile that reproduces a model's mean exactly at
// the given sizes (no sampling noise). Useful for tests and for the
// ablation comparing sampled against oracle network knowledge.
func ExactProfile(m *Model, sizes []int) *Profile {
	p := &Profile{Name: m.Name + "-exact"}
	sorted := slices.Clone(sizes)
	slices.Sort(sorted)
	for _, sz := range sorted {
		p.Points = append(p.Points, ProfilePoint{Size: sz, Time: m.MessageTime(sz)})
	}
	return p
}

// String renders the profile as a table.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network profile %s:", p.Name)
	for _, pt := range p.Points {
		fmt.Fprintf(&b, " %d=%v", pt.Size, pt.Time)
	}
	return b.String()
}
