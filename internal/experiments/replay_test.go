package experiments

import (
	"bytes"
	"context"
	"fmt"
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
// execution, folding a TraceScenario run's trace again from the first
// record encodes to the bytes of that run's profile, and so does the
// profile of the same run with no trace stored (ProfileScenario).
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
			traced, run, err := adps.TraceScenario(spec.Scenarios[0])
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
			if got := encode(run.Trace.Fold(false)); got != want {
				t.Errorf("refolded trace encodes to %d bytes unlike the run's profile's %d", len(got), len(want))
			}
			if got := encode(plain); got != want {
				t.Errorf("the untraced run's profile encodes to %d bytes unlike the traced run's %d", len(got), len(want))
			}
		})
	}
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
