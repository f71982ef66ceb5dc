package pipeline

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/com"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/synthapp"
)

// TestCommFieldsAreExactSums: predictedCommNs, defaultCommNs and
// replicatedCommNs are the integer sums of the profile's edge times over
// the pairs each placement separates, to the nanosecond. Each is priced
// here from the profile alone — EdgeSummary.Time (ExactTime under exact
// pricing) over the crossing classification pairs — and compared with ==.
// A float64-seconds round trip through the cut truncated some of them by
// 1 ns (o_oldtb3's prediction, o_bigone's default).
func TestCommFieldsAreExactSums(t *testing.T) {
	t.Parallel()
	var specs []Spec
	for _, s := range scenario.Table1() {
		for _, exact := range []bool{false, true} {
			specs = append(specs, Spec{Scenarios: []string{s.Name}, Replicate: true, ExactPricing: exact})
		}
	}
	for _, fam := range synthapp.Families() {
		for seed := int64(1); seed <= 5; seed++ {
			app := fmt.Sprintf("synth:%s:%d", fam, seed)
			specs = append(specs, Spec{App: app, Scenarios: scenario.TrainingForApp(app),
				Coverage: true, Replicate: true, Seed: seed + 1})
		}
	}
	for _, spec := range specs {
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s %v: %v", spec.App, spec.Scenarios, err)
		}
		name := fmt.Sprintf("%s %v exact=%v", res.Spec.App, spec.Scenarios, spec.ExactPricing)
		a := res.Analysis
		cut := func(id string) com.Machine { return a.Distribution[id] } // <main> is absent: Client
		if got, want := res.PredictedComm, crossingSum(res, cut, nil); got != want {
			t.Errorf("%s: predictedCommNs %d, the crossing edges sum to %d", name, got, want)
		}
		def := func(id string) com.Machine {
			if ci := res.Profile.Classification(id); ci != nil {
				if cl := res.ADPS.App.Classes.LookupName(ci.Class); cl != nil {
					return cl.Home
				}
			}
			return com.Client
		}
		if got, want := res.DefaultComm, crossingSum(res, def, nil); got != want {
			t.Errorf("%s: defaultCommNs %d, the crossing edges sum to %d", name, got, want)
		}
		if a.ReplicatedCut == nil {
			continue
		}
		server, cloned := map[string]bool{}, map[string]bool{}
		// The replicated graph keeps the base graph's nodes in order.
		for i, side := range a.ReplicatedCut.Assignment {
			if side == graph.SinkSide {
				server[a.Graph.Name(i)] = true
			}
		}
		for _, id := range a.Replicated {
			cloned[id] = true
		}
		repl := func(id string) com.Machine {
			if server[id] {
				return com.Server
			}
			return com.Client
		}
		if got, want := res.ReplicatedComm, crossingSum(res, repl, cloned); got != want {
			t.Errorf("%s: replicatedCommNs %d, the crossing edges sum to %d", name, got, want)
		}
	}
}

// crossingSum prices a placement from the run's profile: the edge times,
// under the session's network profile, of every classification pair the
// placement puts on different machines, skipping the edges of cloned
// (replicated) classifications.
func crossingSum(res *Result, at func(id string) com.Machine, cloned map[string]bool) time.Duration {
	np := res.ADPS.NetProfile
	var sum time.Duration
	for _, e := range res.Profile.Edges {
		src, dst := res.Profile.Name(e.Src), res.Profile.Name(e.Dst)
		if cloned[src] || cloned[dst] || side(at, src) == side(at, dst) {
			continue
		}
		if res.Spec.ExactPricing {
			sum += e.ExactTime(np)
		} else {
			sum += e.Time(np)
		}
	}
	return sum
}

// side is the machine a placement puts a classification on; the main
// program always runs on the client. Any machine but the client counts as
// the server side of a two-way cut.
func side(at func(id string) com.Machine, id string) bool {
	return id != profile.MainProgram && at(id) != com.Client
}
