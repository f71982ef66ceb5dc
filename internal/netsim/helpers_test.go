package netsim

import (
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
