// Package logger implements Coign's information loggers (paper §3.3).
// Under direction of the runtime executive, Coign components pass
// application events — component instantiations and destructions,
// interface calls — to the information logger, which is free to summarize
// them (profiling logger), trace them in full (event logger), or discard
// them (null logger, used during distributed execution).
package logger

import (
	"time"

	"repro/internal/profile"
)

// InstRecord describes one component instantiation event.
type InstRecord struct {
	ID                    uint64
	Class                 string
	Classification        string
	CreatorClassification string
	// CreatorInst is the instance on whose behalf the component was
	// created; 0 is the main program. A replayed instance follows it.
	CreatorInst uint64
	Order       int
	// Path is the activation call path: the classes of the component
	// instances on the stack at the instantiation, innermost first.
	Path []string
}

// CallRecord describes one inter-component interface call.
type CallRecord struct {
	SrcInst, DstInst                     uint64
	SrcClassification, DstClassification string
	IID, Method                          string
	InBytes, OutBytes                    int
	NonRemotable                         bool
	Crossing                             bool // endpoints on different machines
}

// Logger consumes application events.
type Logger interface {
	// BeginRun starts a named scenario run.
	BeginRun(app, scenario string)
	// Instantiation records a component creation.
	Instantiation(rec InstRecord)
	// Call records one interface invocation.
	Call(rec CallRecord)
	// Release records a component destruction.
	Release(instID uint64)
	// EndRun finishes the current run.
	EndRun()
}

// Null discards all events; it is the logger loaded during distributed
// execution, where instrumentation must cost nothing.
type Null struct{}

// BeginRun implements Logger.
func (Null) BeginRun(string, string) {}

// Instantiation implements Logger.
func (Null) Instantiation(InstRecord) {}

// Call implements Logger.
func (Null) Call(CallRecord) {}

// Release implements Logger.
func (Null) Release(uint64) {}

// EndRun implements Logger.
func (Null) EndRun() {}

// Profiling summarizes inter-component communication into in-memory
// structures (per classification pair, with exponential size buckets) and
// produces a profile.Profile at the end of the run. Memory use is bounded
// by the number of distinct edges, not by execution length. It keeps one
// profile: each BeginRun starts a fresh one.
type Profiling struct {
	classifier     string
	instanceDetail bool
	p              *profile.Profile
	open           bool // between BeginRun and EndRun
}

// NewProfiling returns a profiling logger for the given classifier name.
// When instanceDetail is true the logger additionally keeps per-instance
// edges, which classifier evaluation (Tables 2 and 3) requires.
func NewProfiling(classifier string, instanceDetail bool) *Profiling {
	return &Profiling{classifier: classifier, instanceDetail: instanceDetail}
}

// BeginRun implements Logger.
func (l *Profiling) BeginRun(app, scenario string) {
	l.p = profile.New(app, l.classifier)
	l.p.Scenarios = []string{scenario}
	l.open = true
}

// Instantiation implements Logger.
func (l *Profiling) Instantiation(rec InstRecord) {
	if !l.open {
		return
	}
	l.p.AddInstance(profile.InstanceRecord{
		ID:                    rec.ID,
		Class:                 rec.Class,
		Classification:        rec.Classification,
		CreatorClassification: rec.CreatorClassification,
		Order:                 rec.Order,
		Path:                  rec.Path,
	})
}

// Call implements Logger.
func (l *Profiling) Call(rec CallRecord) {
	if !l.open {
		return
	}
	l.p.Edge(rec.SrcClassification, rec.DstClassification).
		Record(rec.InBytes, rec.OutBytes, rec.NonRemotable)
	l.p.Method(rec.DstClassification, rec.Method).Calls++
	if l.instanceDetail {
		l.p.InstEdge(rec.SrcInst, rec.DstInst).
			Record(rec.InBytes, rec.OutBytes, rec.NonRemotable)
	}
}

// Mutation implements MutationSink: observed state writes accumulate on
// the per-method statistics the purity verifier diffs against static
// read-only claims.
func (l *Profiling) Mutation(rec MutationRecord) {
	if !l.open {
		return
	}
	l.p.Method(rec.Classification, rec.Method).Writes++
}

// Release implements Logger. The profiling logger does not need
// destruction events; lifetime is irrelevant to communication cost.
func (l *Profiling) Release(uint64) {}

// EndRun implements Logger.
func (l *Profiling) EndRun() { l.open = false }

// LastRun returns the profile of the most recently completed run, or nil
// before any run has completed and while a run is open.
func (l *Profiling) LastRun() *profile.Profile {
	if l.open {
		return nil
	}
	return l.p
}

// FaultRecord describes one injected or simulated network fault and the
// runtime's reaction to it, so chaos runs leave an auditable trail.
type FaultRecord struct {
	// Kind is "drop", "corrupt", or "giveup" (attempt budget exhausted).
	Kind string
	// Attempt is the 1-based delivery attempt the fault hit.
	Attempt int
	// Bytes is the affected message's payload size.
	Bytes int
	// Penalty is the time the fault cost (timeout wait, wasted transfer).
	Penalty time.Duration
}

// FaultSink receives fault events. It is deliberately separate from
// Logger so existing loggers stay source-compatible; sinks are discovered
// with a type assertion.
type FaultSink interface {
	Fault(rec FaultRecord)
}

// MutationRecord describes one observed state mutation: the named method
// of an instance under the given classification wrote its state.
type MutationRecord struct {
	Classification string
	Class          string
	Method         string
}

// MutationSink receives state-mutation events. Like FaultSink it is
// separate from Logger so existing loggers stay source-compatible; sinks
// are discovered with a type assertion.
type MutationSink interface {
	Mutation(rec MutationRecord)
}

// Multi fans events out to several loggers.
type Multi []Logger

// BeginRun implements Logger.
func (m Multi) BeginRun(app, scenario string) {
	for _, l := range m {
		l.BeginRun(app, scenario)
	}
}

// Instantiation implements Logger.
func (m Multi) Instantiation(rec InstRecord) {
	for _, l := range m {
		l.Instantiation(rec)
	}
}

// Call implements Logger.
func (m Multi) Call(rec CallRecord) {
	for _, l := range m {
		l.Call(rec)
	}
}

// Release implements Logger.
func (m Multi) Release(id uint64) {
	for _, l := range m {
		l.Release(id)
	}
}

// EndRun implements Logger.
func (m Multi) EndRun() {
	for _, l := range m {
		l.EndRun()
	}
}

// Fault implements FaultSink, forwarding to members that are sinks.
func (m Multi) Fault(rec FaultRecord) {
	for _, l := range m {
		if fs, ok := l.(FaultSink); ok {
			fs.Fault(rec)
		}
	}
}

// Mutation implements MutationSink, forwarding to members that are sinks.
func (m Multi) Mutation(rec MutationRecord) {
	for _, l := range m {
		if ms, ok := l.(MutationSink); ok {
			ms.Mutation(rec)
		}
	}
}
