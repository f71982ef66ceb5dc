package logger

import (
	"fmt"
	"io"
	"math"
)

// EventKind enumerates trace event types.
type EventKind uint8

// Trace event kinds.
const (
	EvBegin EventKind = iota
	EvInstantiation
	EvCall
	EvRelease
	EvEnd
	// EvFault records an injected network fault (chaos runs).
	EvFault
)

// Event is one trace entry as read back (see Trace.At). Kind says which
// fields are set: App and Scen for EvBegin, Inst for EvInstantiation (its
// ID alone for EvRelease), Call for EvCall, Fault for EvFault. A call is
// read back as the trace keeps it: SrcInst, DstInst, InBytes, OutBytes and
// NonRemotable.
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
// EvCall, a and b are the calling and the called instance; for an
// EvRelease, a is the instance; for EvBegin, EvInstantiation and EvFault,
// a indexes the event's side table.
type record struct {
	a, b         uint64
	in, out      uint32
	kind         EventKind
	nonRemotable bool
}

// Trace is the event logger: it records every component-related event of
// an execution in order, and the dist package's replayer prices the
// execution again from it under any distribution without running the
// application (paper §3.3: the event logger's traces "drive detailed
// application simulations"). It keeps what a replay reads: a call is its
// two instances, its sizes and its remotability, in one 32-byte record
// like every event; instantiations, faults and run names go in side
// tables. Storage grows a chunk at a time and never copies what it holds.
// With a writer, every event is also printed in full as it happens.
type Trace struct {
	events chunked[record]
	insts  chunked[InstRecord]
	faults chunked[FaultRecord]
	runs   [][2]string // app and scenario of each EvBegin
	err    error
	w      io.Writer // optional live text sink
}

// NewTrace returns an empty trace; w may be nil.
func NewTrace(w io.Writer) *Trace { return &Trace{w: w} }

// Len returns the number of events recorded.
func (t *Trace) Len() int { return t.events.n }

// At returns event i, 0 ≤ i < Len, as read back (see Event).
func (t *Trace) At(i int) Event {
	r := t.events.at(uint64(i))
	ev := Event{Kind: r.kind}
	switch r.kind {
	case EvBegin:
		ev.App, ev.Scen = t.runs[r.a][0], t.runs[r.a][1]
	case EvInstantiation:
		ev.Inst = *t.insts.at(r.a)
	case EvCall:
		ev.Call = CallRecord{SrcInst: r.a, DstInst: r.b, InBytes: int(r.in), OutBytes: int(r.out),
			NonRemotable: r.nonRemotable}
	case EvRelease:
		ev.Inst.ID = r.a
	case EvFault:
		ev.Fault = *t.faults.at(r.a)
	}
	return ev
}

// Err reports the first event the trace could not record: a call whose
// size does not fit its record. Such a trace is incomplete, and the
// replayer refuses it.
func (t *Trace) Err() error { return t.err }

// BeginRun implements Logger.
func (t *Trace) BeginRun(app, scenario string) {
	t.runs = append(t.runs, [2]string{app, scenario})
	t.events.add(record{kind: EvBegin, a: uint64(len(t.runs) - 1)})
	if t.w != nil {
		fmt.Fprintf(t.w, "begin %s %s\n", app, scenario)
	}
}

// Instantiation implements Logger.
func (t *Trace) Instantiation(rec InstRecord) {
	t.events.add(record{kind: EvInstantiation, a: t.insts.add(rec)})
	if t.w != nil {
		fmt.Fprintf(t.w, "create #%d %s as %s\n", rec.ID, rec.Class, rec.Classification)
	}
}

// Call implements Logger. A size outside a record's 32 bits is not
// recorded but kept as the trace's error.
func (t *Trace) Call(rec CallRecord) {
	if t.w != nil {
		fmt.Fprintf(t.w, "call #%d->#%d %s.%s in=%d out=%d\n",
			rec.SrcInst, rec.DstInst, rec.IID, rec.Method, rec.InBytes, rec.OutBytes)
	}
	if !fits32(rec.InBytes) || !fits32(rec.OutBytes) {
		if t.err == nil {
			t.err = fmt.Errorf("logger: call #%d->#%d %s.%s: sizes in=%d out=%d do not fit a trace record",
				rec.SrcInst, rec.DstInst, rec.IID, rec.Method, rec.InBytes, rec.OutBytes)
		}
		return
	}
	t.events.add(record{kind: EvCall, a: rec.SrcInst, b: rec.DstInst,
		in: uint32(rec.InBytes), out: uint32(rec.OutBytes), nonRemotable: rec.NonRemotable})
}

// fits32 reports whether a byte size fits a record's 32 bits.
func fits32(n int) bool { return n >= 0 && uint64(n) <= math.MaxUint32 }

// Release implements Logger.
func (t *Trace) Release(instID uint64) {
	t.events.add(record{kind: EvRelease, a: instID})
	if t.w != nil {
		fmt.Fprintf(t.w, "release #%d\n", instID)
	}
}

// EndRun implements Logger.
func (t *Trace) EndRun() {
	t.events.add(record{kind: EvEnd})
	if t.w != nil {
		fmt.Fprintln(t.w, "end")
	}
}

// Fault implements FaultSink: injected faults become trace entries.
func (t *Trace) Fault(rec FaultRecord) {
	t.events.add(record{kind: EvFault, a: t.faults.add(rec)})
	if t.w != nil {
		fmt.Fprintf(t.w, "fault %s attempt=%d bytes=%d penalty=%v\n",
			rec.Kind, rec.Attempt, rec.Bytes, rec.Penalty)
	}
}
