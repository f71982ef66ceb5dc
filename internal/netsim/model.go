// Package netsim models the networks Coign distributes applications
// across, and implements the network profiler that statistically samples
// message round-trip times to build the cost model the profile analysis
// engine consumes.
//
// The paper's testbed was a pair of 200 MHz Pentium PCs on an isolated
// 10BaseT Ethernet; message cost there is dominated by per-message RPC
// latency plus size/bandwidth. The models here parameterize that trade-off
// so the adaptive-repartitioning experiments (paper §4.4: ISDN → 100BaseT →
// ATM → SAN shift bandwidth-to-latency ratios by more than an order of
// magnitude) can be reproduced.
package netsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Model is a parametric network between two machines.
type Model struct {
	Name string
	// Latency is the one-way wire latency per message.
	Latency time.Duration
	// Bandwidth is the effective payload bandwidth in bytes per second.
	Bandwidth float64
	// PerMessageCPU is the processor cost of marshaling, protocol
	// processing, and thread switching per message (paid once per message,
	// independent of size).
	PerMessageCPU time.Duration
	// Jitter is the relative standard deviation applied to sampled message
	// times. Deterministic predictions use the mean; measured executions
	// sample.
	Jitter float64
	// Loss is the per-message loss probability of the link. The mean-time
	// cost model ignores it; a fault-simulated run (dist.ModelRates into a
	// dist.FaultPolicy) maps it into per-frame drop and corrupt rates so
	// degraded links can be both simulated and survived.
	Loss float64
}

// Predefined network models. Parameters are calibrated so that the DCOM
// null round trip on TenBaseT is ~2 ms and bulk transfer reaches ~1.1 MB/s,
// matching mid-1990s NT4/DCOM measurements on 200 MHz hardware.
var (
	// TenBaseT is the paper's experimental network: isolated 10 Mb/s
	// Ethernet between two equal desktops.
	TenBaseT = &Model{
		Name:          "10BaseT",
		Latency:       350 * time.Microsecond,
		Bandwidth:     1.1e6,
		PerMessageCPU: 650 * time.Microsecond,
		Jitter:        0.05,
		Loss:          0.0002,
	}
	// HundredBaseT is switched 100 Mb/s Ethernet.
	HundredBaseT = &Model{
		Name:          "100BaseT",
		Latency:       120 * time.Microsecond,
		Bandwidth:     11.0e6,
		PerMessageCPU: 600 * time.Microsecond,
		Jitter:        0.05,
		Loss:          0.0001,
	}
	// ISDN is a 128 kb/s wide-area link: high latency, low bandwidth.
	ISDN = &Model{
		Name:          "ISDN",
		Latency:       15 * time.Millisecond,
		Bandwidth:     15.0e3,
		PerMessageCPU: 650 * time.Microsecond,
		Jitter:        0.10,
		Loss:          0.005,
	}
	// ATM155 is 155 Mb/s ATM: low latency, high bandwidth.
	ATM155 = &Model{
		Name:          "ATM",
		Latency:       50 * time.Microsecond,
		Bandwidth:     17.0e6,
		PerMessageCPU: 550 * time.Microsecond,
		Jitter:        0.04,
		Loss:          0.00005,
	}
	// SAN is a system-area network with user-level messaging.
	SAN = &Model{
		Name:          "SAN",
		Latency:       10 * time.Microsecond,
		Bandwidth:     40.0e6,
		PerMessageCPU: 80 * time.Microsecond,
		Jitter:        0.03,
		Loss:          0.00001,
	}
	// Loopback approximates same-machine cross-process DCOM (LRPC).
	Loopback = &Model{
		Name:          "loopback",
		Latency:       5 * time.Microsecond,
		Bandwidth:     120.0e6,
		PerMessageCPU: 45 * time.Microsecond,
		Jitter:        0.02,
		Loss:          0,
	}
)

// Models returns the predefined models keyed by name.
func Models() map[string]*Model {
	return map[string]*Model{
		TenBaseT.Name:     TenBaseT,
		HundredBaseT.Name: HundredBaseT,
		ISDN.Name:         ISDN,
		ATM155.Name:       ATM155,
		SAN.Name:          SAN,
		Loopback.Name:     Loopback,
	}
}

// ByName returns the predefined model with the given name.
func ByName(name string) (*Model, error) {
	if m, ok := Models()[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("netsim: unknown network model %q", name)
}

// MessageTime returns the mean one-way cost of moving a message of the
// given payload size: per-message CPU + wire latency + transmission time.
func (m *Model) MessageTime(bytes int) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	tx := time.Duration(float64(bytes) / m.Bandwidth * float64(time.Second))
	return m.PerMessageCPU + m.Latency + tx
}

// SampleMessageTime returns one stochastic observation of the one-way cost,
// applying the model's jitter. Samples never fall below half the mean.
func (m *Model) SampleMessageTime(bytes int, rng *rand.Rand) time.Duration {
	mean := m.MessageTime(bytes)
	if m.Jitter <= 0 || rng == nil {
		return mean
	}
	f := 1 + rng.NormFloat64()*m.Jitter
	if f < 0.5 {
		f = 0.5
	}
	return time.Duration(float64(mean) * f)
}

// String summarizes the model.
func (m *Model) String() string {
	return fmt.Sprintf("%s(lat=%v bw=%.1fKB/s cpu=%v)",
		m.Name, m.Latency, m.Bandwidth/1e3, m.PerMessageCPU)
}
