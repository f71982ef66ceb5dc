// Package informer implements Coign's interface informers (paper §3.2).
//
// The profiling informer uses the IDL metadata to walk every parameter of
// every interface call and measure precisely the number of bytes DCOM
// would transfer between machines — it accounts for most of Coign's
// profiling overhead (up to 85% of execution time). The distribution
// informer remains in the application after profiling; it examines
// parameters only far enough to identify interface pointers, and costs
// under 3%.
package informer

import (
	"repro/internal/idl"
)

// DCOMHeaderBytes is the per-message protocol overhead (ORPCTHIS/ORPCTHAT
// plus DCE RPC headers) added to every marshaled request and reply.
const DCOMHeaderBytes = 60

// CallInfo is the informer's report on one direction of a call.
type CallInfo struct {
	// Bytes is the measured message size including protocol headers; the
	// distribution informer does not measure and reports zero.
	Bytes int
	// Remotable is false when the parameters cannot cross machines (an
	// opaque pointer is present or the interface is declared local). The
	// distribution informer does not check and reports true.
	Remotable bool
	// Pointers counts the non-nil interface pointers found among the
	// parameters: the references the runtime executive wraps as they
	// cross component boundaries.
	Pointers int
}

// Informer inspects call parameters.
type Informer interface {
	// Name identifies the informer ("profiling" or "distribution").
	Name() string
	// InspectIn examines the request parameters of a call.
	InspectIn(iface *idl.InterfaceDesc, method *idl.MethodDesc, args []idl.Value) CallInfo
	// InspectOut examines the reply values of a call.
	InspectOut(iface *idl.InterfaceDesc, method *idl.MethodDesc, rets []idl.Value) CallInfo
}

// Profiling is the scenario-profiling informer: full parameter walks with
// deep-copy size measurement.
type Profiling struct{}

// Name implements Informer.
func (Profiling) Name() string { return "profiling" }

// InspectIn implements Informer.
func (Profiling) InspectIn(iface *idl.InterfaceDesc, method *idl.MethodDesc, args []idl.Value) CallInfo {
	return profileInspect(iface, args)
}

// InspectOut implements Informer.
func (Profiling) InspectOut(iface *idl.InterfaceDesc, method *idl.MethodDesc, rets []idl.Value) CallInfo {
	return profileInspect(iface, rets)
}

func profileInspect(iface *idl.InterfaceDesc, vals []idl.Value) CallInfo {
	info := CallInfo{Remotable: iface == nil || iface.Remotable}
	bytes := DCOMHeaderBytes
	for i := range vals {
		vals[i].Walk(func(v *idl.Value) bool {
			switch {
			case v.Type == nil:
			case v.Type.Kind == idl.KindInterface && v.Iface != nil:
				info.Pointers++
			case v.Type.Kind == idl.KindOpaque:
				info.Remotable = false
			}
			return true
		})
		bytes += vals[i].DeepSize()
	}
	info.Bytes = bytes
	return info
}

// countPointers counts the non-nil interface pointers reachable from the
// values: the distribution informer scans only this far.
func countPointers(vals []idl.Value) int {
	n := 0
	for i := range vals {
		vals[i].Walk(func(v *idl.Value) bool {
			if v.Type != nil && v.Type.Kind == idl.KindInterface && v.Iface != nil {
				n++
			}
			return true
		})
	}
	return n
}

// Distribution is the lightweight post-profiling informer: it scans only
// for interface pointers so the runtime can keep wrapping interfaces, and
// measures nothing.
type Distribution struct{}

// Name implements Informer.
func (Distribution) Name() string { return "distribution" }

// InspectIn implements Informer.
func (Distribution) InspectIn(iface *idl.InterfaceDesc, method *idl.MethodDesc, args []idl.Value) CallInfo {
	return CallInfo{Remotable: true, Pointers: countPointers(args)}
}

// InspectOut implements Informer.
func (Distribution) InspectOut(iface *idl.InterfaceDesc, method *idl.MethodDesc, rets []idl.Value) CallInfo {
	return CallInfo{Remotable: true, Pointers: countPointers(rets)}
}

// MeasureMessage computes the wire size of a message (headers plus
// deep-copied payload). The distributed runtime uses it to price the
// messages that actually cross machines — the marshaling work DCOM itself
// performs for remote calls, paid only when a call is remote.
func MeasureMessage(vals []idl.Value) int {
	return DCOMHeaderBytes + idl.SizeOf(vals)
}
