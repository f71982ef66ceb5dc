package logger

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/profile"
)

func sampleInst(id uint64) InstRecord {
	return InstRecord{ID: id, Class: "Reader", Classification: "Reader@1"}
}

func sampleCall() CallRecord {
	return CallRecord{SrcInst: 0, DstInst: 1, IID: "IReader", Method: "Read",
		InBytes: 100, OutBytes: 4000}
}

// TestProfilingLoggerSummarizes: the zero Trace is the profiling logger.
// It folds a run into a profile and stores no event; a Trace that stores
// them folds the same profile, online and refolded.
func TestProfilingLoggerSummarizes(t *testing.T) {
	t.Parallel()
	var l Trace
	stored := NewTrace()
	for _, tr := range []*Trace{&l, stored} {
		tr.BeginRun("app", "o_newdoc", "ifcb")
		tr.Instantiation(sampleInst(1))
		tr.Instantiation(sampleInst(2))
		tr.Call(sampleCall())
		tr.Call(sampleCall())
		tr.EndRun()
	}
	if l.Len() != 0 {
		t.Fatalf("the zero Trace stored %d events", l.Len())
	}
	p := l.Profile()
	if p == nil {
		t.Fatal("no run recorded")
	}
	if p.App != "app" || p.Classifier != "ifcb" {
		t.Fatalf("profile of %s under %s", p.App, p.Classifier)
	}
	if n := p.Classification("Reader@1").Instances; n != 2 || p.TotalCalls() != 2 {
		t.Fatalf("instances=%d calls=%d", n, p.TotalCalls())
	}
	e := p.Edge("<main>", "Reader@1")
	if e.Calls != 2 || e.ExactInBytes != 200 || e.ExactOutBytes != 8000 {
		t.Fatalf("edge = %+v", e)
	}
	if m := p.Method("Reader@1", "Read"); m.Calls != 2 {
		t.Fatalf("method = %+v", m)
	}
	if len(p.Scenarios) != 1 || p.Scenarios[0] != "o_newdoc" {
		t.Fatalf("scenarios = %v", p.Scenarios)
	}
	if got, want := encode(t, stored.Profile()), encode(t, p); got != want {
		t.Errorf("a storing trace folded\n%s\nthe zero Trace\n%s", got, want)
	}
	if got := l.Fold(); got != nil {
		t.Errorf("a trace that stores nothing refolded to %+v", got)
	}
	if got, want := encode(t, stored.Fold()), encode(t, p); got != want {
		t.Errorf("a storing trace refolded\n%s\nthe zero Trace\n%s", got, want)
	}
}

// TestProfilingLoggerWithoutInstanceDetail: a run's profile summarises per
// classification; which instance called which is kept only in the stored
// events.
func TestProfilingLoggerWithoutInstanceDetail(t *testing.T) {
	t.Parallel()
	l := NewTrace()
	l.BeginRun("app", "s", "ifcb")
	l.Instantiation(sampleInst(1))
	l.Instantiation(sampleInst(2))
	l.Call(sampleCall())
	second := sampleCall()
	second.DstInst = 2
	l.Call(second)
	l.EndRun()
	p := l.Profile()
	if len(p.Classifications) != 1 || p.Classification("Reader@1").Instances != 2 || len(p.Edges) != 1 {
		t.Fatalf("%d classifications, %d edges; want one of each, with two instances", len(p.Classifications), len(p.Edges))
	}
	if log := encode(t, p); strings.Contains(log, `"instances"`) || strings.Contains(log, `"instEdges"`) {
		t.Errorf("the profile encodes per-instance detail:\n%s", log)
	}
	if ev := l.At(4); ev.Kind != EvCall || ev.Call.DstInst != 2 {
		t.Errorf("the trace read back %+v, want the call to instance 2", ev)
	}
}

func TestProfilingLoggerKeepsOneRun(t *testing.T) {
	t.Parallel()
	var l Trace
	for _, s := range []string{"s1", "s2", "s3"} {
		l.BeginRun("app", s, "ifcb")
		l.Instantiation(sampleInst(1))
		l.Call(sampleCall())
		l.EndRun()
	}
	p := l.Profile()
	if p.TotalCalls() != 1 || len(p.Scenarios) != 1 || p.Scenarios[0] != "s3" {
		t.Fatalf("last run: calls=%d scenarios=%v", p.TotalCalls(), p.Scenarios)
	}
}

func TestProfilingLoggerStartsEmpty(t *testing.T) {
	t.Parallel()
	if new(Trace).Profile() != nil || NewTrace().Profile() != nil {
		t.Fatal("profile before any run")
	}
}

func TestProfilingLoggerIgnoresEventsOutsideRun(t *testing.T) {
	t.Parallel()
	var l Trace
	l.Instantiation(sampleInst(1)) // before BeginRun: dropped
	l.Call(sampleCall())
	l.Mutation(1, "Read")
	l.EndRun() // no active run: no-op
	if l.Profile() != nil {
		t.Fatal("phantom run recorded")
	}
	l.BeginRun("app", "s", "ifcb")
	l.EndRun()
	l.Call(sampleCall()) // after EndRun: dropped
	l.Mutation(1, "Read")
	if got := l.Profile(); got.TotalCalls() != 0 || len(got.Methods) != 0 {
		t.Fatalf("events after EndRun recorded: %d calls, %d methods", got.TotalCalls(), len(got.Methods))
	}
}

// TestTraceFoldsMutations: a state write counts on the writing method of
// the written instance's classification, in the run's profile and in a
// refold of the stored trace alike.
func TestTraceFoldsMutations(t *testing.T) {
	t.Parallel()
	l := NewTrace()
	l.BeginRun("app", "s", "ifcb")
	l.Instantiation(sampleInst(1))
	l.Call(sampleCall())
	l.Mutation(1, "Write")
	l.Mutation(1, "Write")
	l.EndRun()
	for _, p := range []*profile.Profile{l.Profile(), l.Fold()} {
		if len(p.Methods) != 2 {
			t.Errorf("%d method entries, want Read and Write", len(p.Methods))
		}
		if m := p.Method("Reader@1", "Write"); m.Writes != 2 || m.Calls != 0 {
			t.Errorf("Write stats = %+v", m)
		}
		if m := p.Method("Reader@1", "Read"); m.Calls != 1 || m.Writes != 0 {
			t.Errorf("Read stats = %+v", m)
		}
	}
	if ev := l.At(3); ev.Kind != EvMutation || ev.Call.DstInst != 1 || ev.Call.Method != "Write" {
		t.Errorf("mutation read back as %+v", ev)
	}
}

// TestTraceClassifiesSparseInstances: an endpoint's classification is its
// instantiation's whether the run numbers its instances densely, as the
// runtime does, or not; an instance the run never instantiated has none.
func TestTraceClassifiesSparseInstances(t *testing.T) {
	t.Parallel()
	for _, ids := range [][]uint64{{5, 6, 7}, {5, 9, 2}, {5, 6, 6, 9}} {
		l := NewTrace()
		l.BeginRun("app", "s", "ifcb")
		for _, id := range ids {
			l.Instantiation(InstRecord{ID: id, Class: "C", Classification: fmt.Sprintf("C@%d", id)})
		}
		for _, id := range ids {
			l.Call(CallRecord{SrcInst: id, DstInst: ids[0], Method: "M"})
		}
		l.Call(CallRecord{SrcInst: 100, DstInst: ids[0], Method: "M"})
		l.EndRun()
		p := l.Profile()
		for _, id := range ids {
			if p.Edge(fmt.Sprintf("C@%d", id), "C@5").Calls == 0 {
				t.Errorf("ids %v: no edge from C@%d", ids, id)
			}
		}
		if p.Edge("", "C@5").Calls != 1 {
			t.Errorf("ids %v: the call from an unknown instance is not on the unclassified edge", ids)
		}
		if got, want := encode(t, l.Fold()), encode(t, p); got != want {
			t.Errorf("ids %v: refolded\n%s\nonline\n%s", ids, got, want)
		}
	}
}

func TestEventLoggerTracesEverything(t *testing.T) {
	t.Parallel()
	l := NewTrace()
	l.BeginRun("app", "s", "ifcb")
	l.Instantiation(sampleInst(1))
	l.Call(sampleCall())
	l.Fault(FaultRecord{Kind: "drop", Attempt: 1, Bytes: 8})
	l.EndRun()
	if l.Len() != 5 {
		t.Fatalf("events = %d", l.Len())
	}
	kinds := []EventKind{EvBegin, EvInstantiation, EvCall, EvFault, EvEnd}
	for i, k := range kinds {
		if l.At(i).Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, l.At(i).Kind, k)
		}
	}
	if ev := l.At(1); ev.Inst.ID != 1 || ev.Inst.Class != "Reader" {
		t.Errorf("instantiation read back as %+v", ev.Inst)
	}
	if ev := l.At(3); ev.Fault.Kind != "drop" || ev.Fault.Bytes != 8 {
		t.Errorf("fault read back as %+v", ev.Fault)
	}
}

// TestTraceRefusesOversizedCall: a size a record cannot hold is the
// trace's error, never a wrapped or truncated size. A record is 32 bytes.
func TestTraceRefusesOversizedCall(t *testing.T) {
	t.Parallel()
	if n := unsafe.Sizeof(record{}); n != 32 {
		t.Errorf("a trace record is %d bytes, want 32", n)
	}
	for _, size := range []struct{ in, out int }{{1 << 32, 0}, {0, 1 << 40}, {-1, 0}} {
		l := NewTrace()
		l.Call(sampleCall())
		c := sampleCall()
		c.InBytes, c.OutBytes = size.in, size.out
		l.Call(c)
		l.Call(sampleCall())
		if l.Err() == nil {
			t.Errorf("in=%d out=%d: no error", size.in, size.out)
		}
		if l.Len() != 2 {
			t.Errorf("in=%d out=%d: %d events recorded, want the 2 that fit", size.in, size.out, l.Len())
		}
	}
	l := NewTrace()
	c := sampleCall()
	c.InBytes, c.OutBytes = 1<<32-1, 1<<32-1
	if l.Call(c); l.Err() != nil || l.At(0).Call.InBytes != 1<<32-1 {
		t.Errorf("largest size: err %v, read back %+v", l.Err(), l.At(0).Call)
	}
}

// TestTraceStoresAndFolds: one trace both stores every event and folds the
// profile, the two roles one recorder plays.
func TestTraceStoresAndFolds(t *testing.T) {
	t.Parallel()
	e := NewTrace()
	e.BeginRun("app", "s", "ifcb")
	e.Instantiation(sampleInst(1))
	e.Call(sampleCall())
	e.EndRun()
	if e.Profile() == nil || e.Profile().TotalCalls() != 1 {
		t.Error("the trace folded no call")
	}
	if e.Len() != 4 {
		t.Errorf("the trace stored %d events, want 4", e.Len())
	}
}
