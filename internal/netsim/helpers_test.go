package netsim

import (
	"math/rand"
	"time"
)

// Helpers that only the tests use.

// RoundTripTime returns the mean cost of a synchronous interface call that
// sends inBytes of parameters and receives outBytes of results. Each
// direction is a message.
func (m *Model) RoundTripTime(inBytes, outBytes int) time.Duration {
	return m.MessageTime(inBytes) + m.MessageTime(outBytes)
}

// RoundTripTime predicts a synchronous call's cost from the profile.
func (p *Profile) RoundTripTime(inBytes, outBytes int) time.Duration {
	return p.MessageTime(inBytes) + p.MessageTime(outBytes)
}

// SampleModel profiles a simulated network model with the caller's source;
// Sampled is SampleModel over DefaultSampleSizes with a source seeded at
// the session seed plus 7.
func SampleModel(m *Model, rng *rand.Rand, sizes []int, samples int) (*Profile, error) {
	return Sample(m.Name, func(sz int) time.Duration {
		return m.SampleMessageTime(sz, rng)
	}, sizes, samples)
}
