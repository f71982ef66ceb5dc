package logger

import (
	"reflect"
	"testing"
	"time"
)

// FuzzEventTrace appends events through the Logger and FaultSink methods
// and reads every one back equal, a call as the trace keeps it. The input
// is an event count (modulo 4·traceChunk) and a pattern of event kinds
// cycled over it; the seeds put the count and each side table's length at
// 0, 1, traceChunk−1, traceChunk and traceChunk+1. Run with `go test -fuzz
// FuzzEventTrace ./internal/logger` to explore beyond the seed corpus.
func FuzzEventTrace(f *testing.F) {
	for _, n := range []uint16{0, 1, traceChunk - 1, traceChunk, traceChunk + 1} {
		f.Add(n, []byte{0, 1, 2, 2, 3, 5, 4})
		f.Add(n, []byte{byte(EvInstantiation)})
		f.Add(n, []byte{byte(EvCall)})
		f.Add(n, []byte{byte(EvFault)})
	}
	f.Fuzz(func(t *testing.T, n uint16, kinds []byte) {
		count := int(n) % (4 * traceChunk)
		if len(kinds) == 0 {
			kinds = []byte{byte(EvCall)}
		}
		tr := NewTrace(nil)
		want := make([]Event, 0, count)
		for i := 0; i < count; i++ {
			k := EventKind(kinds[i%len(kinds)] % 6)
			id, v := uint64(i)*7+1, uint64(i)*2654435761
			ev := Event{Kind: k}
			switch k {
			case EvBegin:
				ev.App, ev.Scen = "app", string(rune('a'+i%26))
				tr.BeginRun(ev.App, ev.Scen)
			case EvInstantiation:
				ev.Inst = InstRecord{ID: id, Class: "C", Classification: string(rune('A' + i%26)),
					CreatorClassification: "<main>", CreatorInst: id / 2, Order: i, Path: []string{"C", "D"}}
				tr.Instantiation(ev.Inst)
			case EvCall:
				ev.Call = CallRecord{SrcInst: id, DstInst: v >> 7, InBytes: int(uint32(v)), OutBytes: int(uint32(v >> 32)),
					NonRemotable: i%3 == 0}
				full := ev.Call
				full.SrcClassification, full.DstClassification = "A", "B"
				full.IID, full.Method, full.Crossing = "IThing", "Do", true
				tr.Call(full)
			case EvRelease:
				ev.Inst.ID = id
				tr.Release(id)
			case EvEnd:
				tr.EndRun()
			case EvFault:
				ev.Fault = FaultRecord{Kind: "drop", Attempt: i%8 + 1, Bytes: i, Penalty: time.Duration(v)}
				tr.Fault(ev.Fault)
			}
			want = append(want, ev)
		}
		if tr.Err() != nil {
			t.Fatal(tr.Err())
		}
		if tr.Len() != len(want) {
			t.Fatalf("read back %d events, appended %d", tr.Len(), len(want))
		}
		for i, w := range want {
			if got := tr.At(i); !reflect.DeepEqual(got, w) {
				t.Fatalf("event %d of %d: read back %+v, appended %+v", i, count, got, w)
			}
		}
	})
}
