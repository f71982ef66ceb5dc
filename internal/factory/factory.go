// Package factory implements Coign's component factory (paper §3.5): the
// runtime component that produces a distributed application by
// manipulating instance placement. Using output from the instance
// classifier and the profile analysis engine, the factory moves each
// component instantiation request to the appropriate computer. During
// distributed execution a copy of the factory runs on every machine; the
// factories act as peers, each trapping local instantiation requests,
// forwarding them to other machines as appropriate, and fulfilling
// requests destined for its own machine.
package factory

import (
	"fmt"

	"repro/internal/com"
)

// Factory realizes a distribution map produced by the analysis engine.
type Factory struct {
	dist map[string]com.Machine

	relocations int64
	unknown     int64
}

// New returns a factory enforcing the given classification→machine map.
func New(dist map[string]com.Machine) (*Factory, error) {
	if len(dist) == 0 {
		return nil, fmt.Errorf("factory: empty distribution map")
	}
	return &Factory{dist: dist}, nil
}

// Place implements the rte.Placer contract: it decides where an
// instantiation request is fulfilled. Requests whose classification maps
// to a remote machine are forwarded to the peer factory there. An
// instantiation whose classification was never seen during profiling (a
// "new classification" in the sense of paper Table 2) follows its
// creator: an unknown component at worst stays local.
func (f *Factory) Place(classification string, class *com.Class, creator com.Machine) com.Machine {
	target, known := f.dist[classification]
	if !known {
		f.unknown++
		target = creator
	}
	if target != creator {
		f.relocations++
	}
	return target
}

// Relocations returns how many instantiation requests were moved away from
// their creator's machine.
func (f *Factory) Relocations() int64 { return f.relocations }

// Unknown returns how many instantiations had no profiled classification
// and followed their creator — the run-time analog of Table 2's "new
// classifications".
func (f *Factory) Unknown() int64 { return f.unknown }
