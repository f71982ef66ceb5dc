package dist

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/logger"
)

// FuzzReplay hardens the replayer against damaged traces. Each three bytes
// of the input mutate a real trace, read back, once: drop, duplicate or
// swap events, rewrite an instance id or a class, resize a call, or change
// an event's kind; the mutated events are recorded into a new trace. Replay must return an error or a result, never panic; on the
// unmutated trace it must equal Run. Run with `go test -fuzz FuzzReplay
// ./internal/dist` to explore beyond the seed corpus.
func FuzzReplay(f *testing.F) {
	trace := pipelineTrace(f, "big", 3)
	cfg := Config{App: pipelineApp(), Scenario: "big", Seed: 3, Mode: ModeCoign,
		Classifier: classify.New(classify.IFCB, 0), Distribution: readerOnServer(trace),
		Jitter: true, Faults: &FaultPolicy{Drop: 0.05, Corrupt: 0.05, CallPolicy: CallPolicy{MaxAttempts: 8}}}
	run, err := Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{1, 5, 0, 2, 3, 9})
	f.Add([]byte{3, 1, 0, 3, 7, 200})
	f.Add([]byte{4, 6, 255, 5, 2, 1, 6, 4, 1})
	f.Add([]byte{7, 1, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		evs, unmutated := events(trace), len(ops) < 3
		for ; len(ops) >= 3 && len(evs) > 0; ops = ops[3:] {
			i, v := int(ops[1])%len(evs), ops[2]
			ev := &evs[i]
			switch ops[0] % 8 {
			case 0:
				evs = append(evs[:i], evs[i+1:]...)
			case 1:
				evs = append(evs[:i+1], evs[i:]...)
			case 2:
				j := int(v) % len(evs)
				evs[i], evs[j] = evs[j], evs[i]
			case 3:
				ev.Inst.ID, ev.Call.SrcInst = uint64(v), uint64(v)
			case 4:
				ev.Inst.CreatorInst, ev.Call.DstInst = uint64(v), uint64(v)
			case 5:
				ev.Call.InBytes, ev.Call.OutBytes = int(v)*997-50000, int(v)<<12
			case 6:
				ev.Kind = logger.EventKind(v % 7)
			case 7:
				ev.Inst.Class = string(rune('A' + v%26))
			}
		}
		rep, err := Replay(cfg, record(evs))
		if err == nil && rep == nil {
			t.Fatal("replay returned neither a result nor an error")
		}
		if unmutated && (err != nil || priced(rep) != priced(run)) {
			t.Fatalf("unmutated trace: replay error %v, run %s", err, priced(run))
		}
	})
}
