package experiments

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/classify"
	"repro/internal/dist"
	"repro/internal/logger"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/synthapp"
)

// replayOracle traces one profiling run of cfg's scenario at cfg's seed and
// checks that the trace replays to Run(cfg) under every config in cfgs:
// the same error, or equal priced fields with no tolerance.
func replayOracle(t *testing.T, name string, cfgs []dist.Config) {
	t.Helper()
	prof := cfgs[0]
	trace := logger.NewTrace()
	prof.Mode, prof.Trace, prof.Faults = dist.ModeProfiling, trace, nil
	if _, err := dist.Run(prof); err != nil {
		t.Fatalf("%s: traced run: %v", name, err)
	}
	for _, cfg := range cfgs {
		run, runErr := dist.Run(cfg)
		rep, repErr := dist.Replay(cfg, trace)
		want, got := fmt.Sprint(runErr), fmt.Sprint(repErr)
		if runErr == nil && repErr == nil {
			want, got = pricedFields(run), pricedFields(rep)
		}
		if runErr == nil && run.Clock.Messages() == 0 {
			t.Errorf("%s mode %d: nothing crossed machines", name, cfg.Mode)
		}
		if got != want {
			t.Errorf("%s mode %d jitter %v faults %v:\nreplay %s\nrun    %s",
				name, cfg.Mode, cfg.Jitter, cfg.Faults != nil, got, want)
		}
	}
}

// oracleSpecs are the executions the exact oracles run: the three paper
// apps' bigone and the five figure scenarios, and every synthapp family at
// three seeds.
func oracleSpecs(t *testing.T) []pipeline.Spec {
	t.Helper()
	var specs []pipeline.Spec
	seen := map[string]bool{}
	for _, app := range []string{"octarine", "photodraw", "benefits"} {
		big, err := scenario.BigoneForApp(app)
		if err != nil {
			t.Fatal(err)
		}
		seen[big] = true
		specs = append(specs, pipeline.Spec{Scenarios: []string{big}})
	}
	for _, f := range figureSpecs {
		if !seen[f.scenario] {
			specs = append(specs, pipeline.Spec{Scenarios: []string{f.scenario}})
		}
	}
	for _, fam := range synthapp.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			specs = append(specs, pipeline.Spec{
				App:       fmt.Sprintf("synth:%s:%d", fam, seed),
				Scenarios: []string{synthapp.ScenBigone},
				Seed:      seed + 4,
			})
		}
	}
	return specs
}

// specName names spec's subtest.
func specName(spec pipeline.Spec) string {
	if spec.App != "" {
		return spec.App
	}
	return spec.Scenarios[0]
}

// TestRefoldMatchesProfile is the exact oracle between the profile the
// runtime folds as a run records and its stored records: on every oracle
// execution, folding a traced run's trace (ProfileScenario with trace)
// again from the first record encodes to the bytes of that run's profile,
// and so does the profile of the same run with no trace stored.
func TestRefoldMatchesProfile(t *testing.T) {
	t.Parallel()
	encode := func(p *profile.Profile) string {
		var b bytes.Buffer
		if err := p.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, spec := range oracleSpecs(t) {
		spec := spec
		t.Run(specName(spec), func(t *testing.T) {
			t.Parallel()
			adps, err := pipeline.Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := adps.Instrument(); err != nil {
				t.Fatal(err)
			}
			traced, run, err := adps.ProfileScenario(spec.Scenarios[0], true)
			if err != nil {
				t.Fatal(err)
			}
			plain, _, err := adps.ProfileScenario(spec.Scenarios[0], false)
			if err != nil {
				t.Fatal(err)
			}
			want := encode(traced)
			if traced.TotalCalls() == 0 || run.Trace.Len() == 0 {
				t.Fatalf("%d calls profiled, %d events stored", traced.TotalCalls(), run.Trace.Len())
			}
			if got := encode(run.Trace.Fold()); got != want {
				t.Errorf("refolded trace encodes to %d bytes unlike the run's profile's %d", len(got), len(want))
			}
			if got := encode(plain); got != want {
				t.Errorf("the untraced run's profile encodes to %d bytes unlike the traced run's %d", len(got), len(want))
			}
		})
	}
}

// TestProducersHandOutNameOrder holds every producer of a profile to one
// order: a live profiling run, a refold of its trace with instance edges,
// a merge of two runs and a decode of a log whose entries were shuffled
// each hand out their classifications by id, their edges by source and
// then destination name and their methods by classification and then
// method name, with every entry still found by its key, and re-encode to
// the bytes they were encoded to.
func TestProducersHandOutNameOrder(t *testing.T) {
	t.Parallel()
	adps, err := pipeline.Open(pipeline.Spec{Scenarios: []string{"p_newdoc", "p_oldmsr"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	encode := func(p *profile.Profile) []byte {
		var b bytes.Buffer
		if err := p.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	decode := func(b []byte) *profile.Profile {
		p, err := profile.Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	live, _, err := adps.ProfileScenario("p_newdoc", false)
	if err != nil {
		t.Fatal(err)
	}
	_, run, err := adps.ProfileScenario("p_newdoc", true)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := adps.ProfileScenario("p_newdoc", false)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := adps.ProfileScenario("p_oldmsr", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(other); err != nil {
		t.Fatal(err)
	}
	log := encode(live)
	shuffled := shuffleLog(t, log)
	if bytes.Equal(shuffled, log) {
		t.Fatal("shuffling left the log as it was")
	}
	for _, c := range []struct {
		name string
		p    *profile.Profile
		want []byte // the encoding p must re-encode to
	}{
		{"live run", live, nil},
		{"trace fold", run.Trace.Fold(), nil},
		{"merge", merged, nil},
		{"decoded shuffled log", decode(shuffled), log},
	} {
		p := c.p
		if len(p.Classifications) < 2 || len(p.Edges) < 2 || len(p.Methods) < 2 {
			t.Fatalf("%s: %d classifications, %d edges, %d methods: too few to have an order",
				c.name, len(p.Classifications), len(p.Edges), len(p.Methods))
		}
		for i, ci := range p.Classifications {
			if i > 0 && p.Classifications[i-1].ID >= ci.ID {
				t.Errorf("%s: classification %s listed after %s", c.name, ci.ID, p.Classifications[i-1].ID)
			}
			if p.Classification(ci.ID) != ci {
				t.Errorf("%s: classification %s not found by its id", c.name, ci.ID)
			}
		}
		for i, e := range p.Edges {
			if i > 0 {
				prev := p.Edges[i-1]
				if cmp.Or(cmp.Compare(p.Name(prev.Src), p.Name(e.Src)), cmp.Compare(p.Name(prev.Dst), p.Name(e.Dst))) >= 0 {
					t.Errorf("%s: edge %s -> %s listed after %s -> %s", c.name,
						p.Name(e.Src), p.Name(e.Dst), p.Name(prev.Src), p.Name(prev.Dst))
				}
			}
			if p.EdgeOf(e.Src, e.Dst) != &e.EdgeSummary {
				t.Errorf("%s: edge %s -> %s not found by its key", c.name, p.Name(e.Src), p.Name(e.Dst))
			}
		}
		for i, m := range p.Methods {
			if i > 0 {
				prev := p.Methods[i-1]
				if cmp.Or(cmp.Compare(p.Name(prev.Classification), p.Name(m.Classification)), cmp.Compare(prev.Method, m.Method)) >= 0 {
					t.Errorf("%s: method %s.%s listed after %s.%s", c.name,
						p.Name(m.Classification), m.Method, p.Name(prev.Classification), prev.Method)
				}
			}
			if p.Method(p.Name(m.Classification), m.Method) != m {
				t.Errorf("%s: method %s.%s not found by its key", c.name, p.Name(m.Classification), m.Method)
			}
		}
		want := c.want
		if want == nil {
			want = encode(p)
		}
		if got := encode(decode(encode(p))); !bytes.Equal(got, want) {
			t.Errorf("%s: re-encodes to %d bytes unlike the %d it was encoded to", c.name, len(got), len(want))
		}
	}
}

// shuffleLog returns the log with its edge, classification and method
// entries in a seeded random order.
func shuffleLog(t *testing.T, log []byte) []byte {
	t.Helper()
	var f map[string]json.RawMessage
	if err := json.Unmarshal(log, &f); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, table := range []string{"edges", "classifications", "methods"} {
		var entries []json.RawMessage
		if err := json.Unmarshal(f[table], &entries); err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		b, err := json.Marshal(entries)
		if err != nil {
			t.Fatal(err)
		}
		f[table] = b
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayMatchesRun is the exact oracle between the replayer and the
// runtime: every oracle execution under the default and the analysis's
// distribution, each with jitter off and on and with faults.
func TestReplayMatchesRun(t *testing.T) {
	t.Parallel()
	specs := oracleSpecs(t)
	faults := &dist.FaultPolicy{Drop: 0.02, Corrupt: 0.01, CallPolicy: dist.CallPolicy{MaxAttempts: 8}}
	for _, spec := range specs {
		spec := spec
		name := specName(spec)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := pipeline.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			adps := res.ADPS
			base := dist.Config{
				App: adps.App, Scenario: spec.Scenarios[0], Seed: adps.Seed,
				Classifier: classify.New(adps.ClassifierKind, adps.ClassifierDepth),
				Network:    adps.Network,
			}
			var cfgs []dist.Config
			for _, mode := range []dist.Mode{dist.ModeDefault, dist.ModeCoign} {
				cfg := base
				cfg.Mode, cfg.Distribution = mode, res.Analysis.Distribution
				jittered, faulted := cfg, cfg
				jittered.Jitter = true
				faulted.Jitter, faulted.Faults = true, faults
				cfgs = append(cfgs, cfg, jittered, faulted)
			}
			replayOracle(t, name, cfgs)
		})
	}
}
