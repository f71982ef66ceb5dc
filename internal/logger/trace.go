// Package logger implements Coign's information logger (paper §3.3).
// Under direction of the runtime executive, Coign components pass
// application events — component instantiations, interface calls, state
// writes — to the information logger, which the paper lets summarize them
// (profiling logger), trace them in full (event logger), or discard them
// (null logger, used during distributed execution). Components are never
// destroyed here, so there is no release event.
//
// Here the three roles are one recorder, Trace, and its absence. Every
// event becomes one 32-byte record, and the ICC profile is a fold over
// those records: a Trace folds each record into its run's profile as it
// is appended. The profile summarises per classification pair; the
// per-instance detail — which instance called which, in what order — is
// kept only by a Trace made by NewTrace, which also stores the records:
// the dist package's replayer prices the execution again from them, and
// classifier evaluation (analysis.EvaluateClassifier) reads each
// instance's communication from them. The zero Trace stores none, so the
// memory of a profiling run stays bounded by the number of distinct edges
// rather than by the run's length. No Trace at all — the runtime's nil
// logger — discards every event.
package logger

import (
	"fmt"
	"math"
	"time"

	"repro/internal/profile"
)

// InstRecord describes one component instantiation event.
type InstRecord struct {
	ID             uint64
	Class          string
	Classification string
	// CreatorInst is the instance on whose behalf the component was
	// created; 0 is the main program. A replayed instance follows it.
	CreatorInst uint64
	// Path is the activation call path: the classes of the component
	// instances on the stack at the instantiation, innermost first.
	// Consecutive records may share one path, so it is never written into.
	Path []string
}

// CallRecord describes one inter-component interface call. A call from
// the main program has SrcInst 0. The endpoints' classifications are
// their instantiations'.
type CallRecord struct {
	SrcInst, DstInst  uint64
	IID, Method       string
	InBytes, OutBytes int
	NonRemotable      bool
}

// FaultRecord describes one simulated network fault and the
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

// EventKind enumerates trace event types.
type EventKind uint8

// Trace event kinds.
const (
	EvBegin EventKind = iota
	EvInstantiation
	EvCall
	EvEnd
	// EvFault records an injected network fault (chaos runs).
	EvFault
	// EvMutation records a method writing its instance's state.
	EvMutation
)

// Event is one trace entry as read back (see Trace.At). Kind says which
// fields are set: App and Scen for EvBegin, Inst for EvInstantiation,
// Call for EvCall, Fault for EvFault. A call is read back as the trace
// keeps it: SrcInst, DstInst, Method, InBytes, OutBytes and NonRemotable.
// An EvMutation is read back as Call.DstInst, the instance whose state was
// written, and Call.Method, the method that wrote it.
type Event struct {
	Kind  EventKind
	Inst  InstRecord
	Call  CallRecord
	Fault FaultRecord
	App   string
	Scen  string
}

// traceChunk is how many entries one chunk of a trace's storage holds.
const traceChunk = 1024

// chunked is append-only storage in fixed-size chunks: appending never
// moves or copies what is already stored.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

// add stores v and returns its index.
func (c *chunked[T]) add(v T) uint64 {
	if c.n%traceChunk == 0 {
		c.chunks = append(c.chunks, make([]T, 0, traceChunk))
	}
	last := &c.chunks[len(c.chunks)-1]
	*last = append(*last, v)
	c.n++
	return uint64(c.n - 1)
}

// at returns the entry at index i.
func (c *chunked[T]) at(i uint64) *T { return &c.chunks[i/traceChunk][i%traceChunk] }

// record is one trace event as stored: 32 bytes whatever its kind. For an
// EvCall, a and b are the calling and the called instance and method
// indexes the method table; an EvMutation has its instance in a and its
// method in method; for EvBegin, EvInstantiation and EvFault, a indexes
// the event's side table.
type record struct {
	a, b         uint64
	in, out      uint32
	method       uint32
	kind         EventKind
	nonRemotable bool
}

// Trace is the information logger. It folds every event into the profile
// of its run as the event happens (Profile). A Trace made by NewTrace also
// stores every event in order, each in one 32-byte record, with
// instantiations, faults, method names and run names in side tables that
// grow a chunk at a time and never copy what they hold; the dist package's
// replayer prices the execution again from it under any distribution
// (paper §3.3: the event logger's traces "drive detailed application
// simulations"). The zero Trace stores nothing: its profile is all it
// keeps.
type Trace struct {
	store   bool
	events  chunked[record]
	insts   chunked[InstRecord]
	faults  chunked[FaultRecord]
	runs    [][3]string       // app, scenario and classifier of each EvBegin
	methods []string          // the method table, in first-call order
	index   map[string]uint32 // method name -> its index in methods
	sum     summary
	err     error
}

// NewTrace returns an empty trace that stores every event.
func NewTrace() *Trace { return &Trace{store: true} }

// Len returns the number of events stored.
func (t *Trace) Len() int { return t.events.n }

// At returns stored event i, 0 ≤ i < Len, as read back (see Event).
func (t *Trace) At(i int) Event {
	r := t.events.at(uint64(i))
	ev := Event{Kind: r.kind}
	switch r.kind {
	case EvBegin:
		ev.App, ev.Scen = t.runs[r.a][0], t.runs[r.a][1]
	case EvInstantiation:
		ev.Inst = *t.insts.at(r.a)
	case EvCall:
		ev.Call = CallRecord{SrcInst: r.a, DstInst: r.b, Method: t.methods[r.method],
			InBytes: int(r.in), OutBytes: int(r.out), NonRemotable: r.nonRemotable}
	case EvFault:
		ev.Fault = *t.faults.at(r.a)
	case EvMutation:
		ev.Call = CallRecord{DstInst: r.a, Method: t.methods[r.method]}
	}
	return ev
}

// Err reports the first event the trace could not record: a call whose
// size does not fit its record. Such a trace is incomplete, and the
// replayer refuses it.
func (t *Trace) Err() error { return t.err }

// Profile returns the profile of the latest run the trace was given, as
// folded so far, or nil before any run. Its tables are in name order once
// the run ended and in first-seen order before.
func (t *Trace) Profile() *profile.Profile { return t.sum.p }

// Fold folds the stored events again from the first, into a fresh profile
// of the last run: Profile's profile byte for byte. It is the oracle the
// online fold is held to, on the fuzz corpus and on real applications
// (experiments.TestRefoldMatchesProfile); no product code refolds. A
// trace that stores nothing folds to nil.
//
//lint:allow unusedexport test oracle: the refold tests of logger and experiments call it
func (t *Trace) Fold() *profile.Profile {
	var s summary
	for i := 0; i < t.events.n; i++ {
		r := t.events.at(uint64(i))
		var inst *InstRecord
		if r.kind == EvInstantiation {
			inst = t.insts.at(r.a)
		}
		s.fold(r, t.runs, inst, "", t.methods)
	}
	return s.p
}

// add stores r if the trace stores and folds it: inst is the
// instantiation of an EvInstantiation, method the method of an EvCall or
// EvMutation.
func (t *Trace) add(r record, inst *InstRecord, method string) {
	if t.store {
		if r.kind == EvCall || r.kind == EvMutation {
			r.method = t.intern(method)
		}
		t.events.add(r)
	}
	t.sum.fold(&r, t.runs, inst, method, t.methods)
}

// intern returns the method table's index of name, adding it if new.
func (t *Trace) intern(name string) uint32 {
	if i, ok := t.index[name]; ok {
		return i
	}
	if t.index == nil {
		t.index = make(map[string]uint32)
	}
	i := uint32(len(t.methods))
	t.methods = append(t.methods, name)
	t.index[name] = i
	return i
}

// BeginRun starts a named scenario run of app whose instances the named
// classifier classifies.
func (t *Trace) BeginRun(app, scenario, classifier string) {
	t.runs = append(t.runs, [3]string{app, scenario, classifier})
	t.add(record{kind: EvBegin, a: uint64(len(t.runs) - 1)}, nil, "")
}

// Instantiation records a component creation.
func (t *Trace) Instantiation(rec InstRecord) {
	r := record{kind: EvInstantiation}
	if t.store {
		r.a = t.insts.add(rec)
	}
	t.add(r, &rec, "")
}

// Call records one interface invocation. A size outside a record's 32
// bits is not recorded but kept as the trace's error.
func (t *Trace) Call(rec CallRecord) {
	if !fits32(rec.InBytes) || !fits32(rec.OutBytes) {
		if t.err == nil {
			t.err = fmt.Errorf("logger: call #%d->#%d %s.%s: sizes in=%d out=%d do not fit a trace record",
				rec.SrcInst, rec.DstInst, rec.IID, rec.Method, rec.InBytes, rec.OutBytes)
		}
		return
	}
	t.add(record{kind: EvCall, a: rec.SrcInst, b: rec.DstInst,
		in: uint32(rec.InBytes), out: uint32(rec.OutBytes), nonRemotable: rec.NonRemotable}, nil, rec.Method)
}

// fits32 reports whether a byte size fits a record's 32 bits.
func fits32(n int) bool { return n >= 0 && uint64(n) <= math.MaxUint32 }

// Mutation records that the named method of instance inst wrote its
// state; the profile counts it on the method's statistics, which the
// purity verifier diffs against static read-only claims.
func (t *Trace) Mutation(inst uint64, method string) {
	t.add(record{kind: EvMutation, a: inst}, nil, method)
}

// EndRun finishes the current run.
func (t *Trace) EndRun() {
	t.add(record{kind: EvEnd}, nil, "")
}

// Fault records an injected network fault.
func (t *Trace) Fault(rec FaultRecord) {
	r := record{kind: EvFault}
	if t.store {
		r.a = t.faults.add(rec)
	}
	t.add(r, nil, "")
}

// summary is the profile a trace's records fold into: inter-component
// communication per classification pair, with exponential size buckets,
// per-method call and write counts, and per-classification instance
// counts. Each EvBegin starts a fresh profile and each EvEnd hands it out
// in name order; events outside a run are not counted.
//
// The fold looks up at most one name per call, its method's. It keeps
// each instance's id and classification number, so a call finds its edge
// by integer key. A trace that stores its records numbers the method in
// its own table first (Trace.intern), and the fold keeps the profile's
// number of each beside it; a trace that stores nothing lets the profile
// number the method by name.
type summary struct {
	p       *profile.Profile
	open    bool         // between EvBegin and EvEnd
	insts   []classified // the run's instances, in instantiation order
	main    int32        // the main program's classification number
	methods []int32      // profile method number of each trace method index, -1 until seen
}

// classified is one instance of a run and its classification's number.
type classified struct {
	id  uint64
	num int32
}

// fold accumulates one record: runs is the trace's run table, inst the
// instantiation of an EvInstantiation. The method of an EvCall or
// EvMutation is methods[r.method] when the trace stores its records, and
// method when it does not (methods is then empty).
func (s *summary) fold(r *record, runs [][3]string, inst *InstRecord, method string, methods []string) {
	switch r.kind {
	case EvBegin:
		run := runs[r.a]
		s.p = profile.New(run[0], run[2])
		s.p.Scenarios = []string{run[1]}
		s.main = s.p.Number(profile.MainProgram)
		if s.insts == nil {
			s.insts = make([]classified, 0, 8)
		}
		s.insts = s.insts[:0]
		for i := range s.methods {
			s.methods[i] = -1
		}
		s.open = true
		return
	case EvEnd:
		if s.open {
			s.p.Sort()
		}
		s.open = false
		return
	}
	if !s.open {
		return
	}
	switch r.kind {
	case EvInstantiation:
		s.insts = append(s.insts, classified{inst.ID, s.p.AddInstance(inst.Classification, inst.Class, inst.Path)})
	case EvCall:
		dst := s.classification(r.b)
		s.p.EdgeOf(s.classification(r.a), dst).Record(int(r.in), int(r.out), r.nonRemotable)
		s.p.MethodOf(dst, s.method(r, method, methods)).Calls++
	case EvMutation:
		s.p.MethodOf(s.classification(r.a), s.method(r, method, methods)).Writes++
	}
}

// method returns the profile's number of the record's method: by name
// when methods is empty, else through trace method index r.method,
// numbering methods[r.method] in the profile the first time the run sees
// it.
func (s *summary) method(r *record, method string, methods []string) int32 {
	if len(methods) == 0 {
		return s.p.MethodNumber(method)
	}
	i := r.method
	for int(i) >= len(s.methods) {
		s.methods = append(s.methods, -1)
	}
	if s.methods[i] < 0 {
		s.methods[i] = s.p.MethodNumber(methods[i])
	}
	return s.methods[i]
}

// classification returns the classification number of instance id in the
// current run: its instantiation's, the main program's for 0, and the
// number of "" for an instance the run did not instantiate. The runtime
// numbers a run's instances densely in instantiation order, so instance
// id is insts[id-insts[0].id]; the instances of any other trace are
// searched.
func (s *summary) classification(id uint64) int32 {
	if id == 0 {
		return s.main
	}
	ins := s.insts
	if len(ins) > 0 {
		if i := id - ins[0].id; i < uint64(len(ins)) && ins[i].id == id {
			return ins[i].num
		}
	}
	for _, in := range ins {
		if in.id == id {
			return in.num
		}
	}
	return s.p.Number("")
}
