package logger

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/profile"
)

// encode returns p's log-file encoding, "" for no profile.
func encode(t *testing.T, p *profile.Profile) string {
	t.Helper()
	if p == nil {
		return ""
	}
	var b bytes.Buffer
	if err := p.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// FuzzEventTrace appends events through a trace's recording methods and
// reads every one back equal, a call as the trace keeps it. Folding the
// stored events again from scratch gives the profile the trace folded as
// they were appended, and so does a zero Trace given the same events,
// byte for byte as Encode writes them. The input is an event count
// (modulo 4·traceChunk) and a pattern of event kinds cycled over it; the
// seeds put the count and each side table's length at 0, 1,
// traceChunk−1, traceChunk and traceChunk+1, and one seed grows an edge's
// histograms past their two carved slots. Run with `go test -fuzz
// FuzzEventTrace ./internal/logger` to explore beyond the seed corpus.
func FuzzEventTrace(f *testing.F) {
	for _, n := range []uint16{0, 1, traceChunk - 1, traceChunk, traceChunk + 1} {
		f.Add(n, []byte{byte(EvBegin), byte(EvInstantiation), byte(EvCall), byte(EvCall), byte(EvFault), byte(EvEnd)})
		f.Add(n, []byte{byte(EvBegin), byte(EvInstantiation), byte(EvInstantiation), byte(EvCall), byte(EvMutation),
			byte(EvCall), byte(EvInstantiation), byte(EvMutation), byte(EvCall), byte(EvEnd)})
		f.Add(n, []byte{byte(EvInstantiation)})
		f.Add(n, []byte{byte(EvCall)})
		f.Add(n, []byte{byte(EvFault)})
		f.Add(n, []byte{byte(EvMutation)})
	}
	// One run of 15 calls from uninstantiated instances: eleven reach the
	// edge between two unknown classifications, five buckets each way,
	// more than the two slots a profile carves for a histogram.
	f.Add(uint16(16), append([]byte{byte(EvBegin)}, bytes.Repeat([]byte{byte(EvCall)}, 15)...))
	f.Fuzz(func(t *testing.T, n uint16, kinds []byte) {
		count := int(n) % (4 * traceChunk)
		if len(kinds) == 0 {
			kinds = []byte{byte(EvCall)}
		}
		tr, zero := NewTrace(), new(Trace)
		want := make([]Event, 0, count)
		for i := 0; i < count; i++ {
			k := EventKind(kinds[i%len(kinds)]) % (EvMutation + 1)
			// Instance ids run densely from 1 for the first half of the
			// events, then sparsely; calls and writes hit instantiated
			// instances, the main program and unknown ones.
			id, v := uint64(i)+1, uint64(i)*2654435761
			if i > count/2 {
				id = uint64(i)*7 + 1
			}
			peer := []uint64{0, id - 1, v >> 7, id / 2}[i%4]
			method := []string{"Do", "Undo", "", "Redo"}[i%4]
			ev := Event{Kind: k}
			for _, t := range []*Trace{tr, zero} {
				switch k {
				case EvBegin:
					ev.App, ev.Scen = "app", string(rune('a'+i%26))
					t.BeginRun(ev.App, ev.Scen, "ifcb")
				case EvInstantiation:
					ev.Inst = InstRecord{ID: id, Class: "C", Classification: string(rune('A' + i%26)),
						CreatorInst: id / 2, Path: []string{"C", "D"}}
					t.Instantiation(ev.Inst)
				case EvCall:
					ev.Call = CallRecord{SrcInst: id, DstInst: peer, Method: method, InBytes: int(uint32(v)),
						OutBytes: int(uint32(v >> 32)), NonRemotable: i%3 == 0}
					full := ev.Call
					full.IID = "IThing"
					t.Call(full)
				case EvEnd:
					t.EndRun()
				case EvFault:
					ev.Fault = FaultRecord{Kind: "drop", Attempt: i%8 + 1, Bytes: i, Penalty: time.Duration(v)}
					t.Fault(ev.Fault)
				case EvMutation:
					ev.Call = CallRecord{DstInst: peer, Method: method}
					t.Mutation(peer, method)
				}
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
		online := encode(t, tr.Profile())
		if refolded := encode(t, tr.Fold()); refolded != online {
			t.Fatalf("refolded profile\n%s\nonline profile\n%s", refolded, online)
		}
		if unstored := encode(t, zero.Profile()); unstored != online {
			t.Fatalf("the zero Trace folded\n%s\nthe storing trace\n%s", unstored, online)
		}
	})
}
