package logger

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

func sampleInst(id uint64) InstRecord {
	return InstRecord{ID: id, Class: "Reader", Classification: "Reader@1",
		CreatorClassification: "<main>", Order: int(id)}
}

func sampleCall() CallRecord {
	return CallRecord{SrcInst: 0, DstInst: 1, SrcClassification: "<main>",
		DstClassification: "Reader@1", IID: "IReader", Method: "Read",
		InBytes: 100, OutBytes: 4000}
}

func TestNullLoggerDoesNothing(t *testing.T) {
	t.Parallel()
	var n Null
	n.BeginRun("a", "s")
	n.Instantiation(sampleInst(1))
	n.Call(sampleCall())
	n.Release(1)
	n.EndRun()
}

func TestProfilingLoggerSummarizes(t *testing.T) {
	t.Parallel()
	l := NewProfiling("ifcb", true)
	l.BeginRun("app", "o_newdoc")
	l.Instantiation(sampleInst(1))
	l.Instantiation(sampleInst(2))
	l.Call(sampleCall())
	l.Call(sampleCall())
	l.EndRun()

	p := l.LastRun()
	if p == nil {
		t.Fatal("no run recorded")
	}
	if p.TotalInstances() != 2 || p.TotalCalls() != 2 {
		t.Fatalf("instances=%d calls=%d", p.TotalInstances(), p.TotalCalls())
	}
	e := p.Edge("<main>", "Reader@1")
	if e.Calls != 2 || e.ExactInBytes != 200 || e.ExactOutBytes != 8000 {
		t.Fatalf("edge = %+v", e)
	}
	if len(p.InstEdges) != 1 {
		t.Fatalf("instance detail = %d edges", len(p.InstEdges))
	}
	if len(p.Scenarios) != 1 || p.Scenarios[0] != "o_newdoc" {
		t.Fatalf("scenarios = %v", p.Scenarios)
	}
}

func TestProfilingLoggerWithoutInstanceDetail(t *testing.T) {
	t.Parallel()
	l := NewProfiling("ifcb", false)
	l.BeginRun("app", "s")
	l.Instantiation(sampleInst(1))
	l.Call(sampleCall())
	l.EndRun()
	if len(l.LastRun().InstEdges) != 0 {
		t.Fatal("instance detail recorded when disabled")
	}
}

func TestProfilingLoggerKeepsOneRun(t *testing.T) {
	t.Parallel()
	l := NewProfiling("ifcb", false)
	for _, s := range []string{"s1", "s2", "s3"} {
		l.BeginRun("app", s)
		if l.LastRun() != nil {
			t.Fatal("an open run reported as completed")
		}
		l.Instantiation(sampleInst(1))
		l.Call(sampleCall())
		l.EndRun()
	}
	p := l.LastRun()
	if p.TotalCalls() != 1 || len(p.Scenarios) != 1 || p.Scenarios[0] != "s3" {
		t.Fatalf("last run: calls=%d scenarios=%v", p.TotalCalls(), p.Scenarios)
	}
}

func TestProfilingLoggerStartsEmpty(t *testing.T) {
	t.Parallel()
	if NewProfiling("ifcb", false).LastRun() != nil {
		t.Fatal("profile before any run")
	}
}

func TestProfilingLoggerIgnoresEventsOutsideRun(t *testing.T) {
	t.Parallel()
	l := NewProfiling("ifcb", true)
	l.Instantiation(sampleInst(1)) // before BeginRun: dropped
	l.Call(sampleCall())
	l.EndRun() // no active run: no-op
	if l.LastRun() != nil {
		t.Fatal("phantom run recorded")
	}
	l.BeginRun("app", "s")
	l.EndRun()
	l.Call(sampleCall()) // after EndRun: dropped
	if got := l.LastRun().TotalCalls(); got != 0 {
		t.Fatalf("calls after EndRun recorded: %d", got)
	}
}

func TestEventLoggerTracesEverything(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	l := NewTrace(&buf)
	l.BeginRun("app", "s")
	l.Instantiation(sampleInst(1))
	l.Call(sampleCall())
	l.Release(1)
	l.EndRun()
	if l.Len() != 5 {
		t.Fatalf("events = %d", l.Len())
	}
	kinds := []EventKind{EvBegin, EvInstantiation, EvCall, EvRelease, EvEnd}
	for i, k := range kinds {
		if l.At(i).Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, l.At(i).Kind, k)
		}
	}
	out := buf.String()
	for _, want := range []string{"begin app s", "create #1 Reader", "call #0->#1 IReader.Read", "release #1", "end"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q in %q", want, out)
		}
	}
}

func TestEventLoggerNilWriter(t *testing.T) {
	t.Parallel()
	l := NewTrace(nil)
	l.BeginRun("a", "s")
	l.Call(sampleCall())
	l.EndRun()
	if l.Len() != 3 {
		t.Fatalf("events = %d", l.Len())
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
		l := NewTrace(nil)
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
	l := NewTrace(nil)
	c := sampleCall()
	c.InBytes, c.OutBytes = 1<<32-1, 1<<32-1
	if l.Call(c); l.Err() != nil || l.At(0).Call.InBytes != 1<<32-1 {
		t.Errorf("largest size: err %v, read back %+v", l.Err(), l.At(0).Call)
	}
}

func TestMultiFansOut(t *testing.T) {
	t.Parallel()
	p := NewProfiling("ifcb", false)
	e := NewTrace(nil)
	m := Multi{p, e}
	m.BeginRun("app", "s")
	m.Instantiation(sampleInst(1))
	m.Call(sampleCall())
	m.Release(1)
	m.EndRun()
	if p.LastRun() == nil || p.LastRun().TotalCalls() != 1 {
		t.Error("profiling logger missed events via Multi")
	}
	if e.Len() != 5 {
		t.Error("trace missed events via Multi")
	}
}
