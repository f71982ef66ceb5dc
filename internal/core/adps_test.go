package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps/octarine"
	"repro/internal/binimg"
	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

func TestPipelineStages(t *testing.T) {
	t.Parallel()
	app := octarine.New()
	adps := New(app)

	// Fresh pipeline: original binary, not instrumented.
	if adps.Image.Instrumented() {
		t.Fatal("fresh image instrumented")
	}
	if _, _, err := adps.ProfileScenario(octarine.ScenNewDoc, false); err == nil {
		t.Fatal("profiling an un-instrumented binary succeeded")
	}

	// Rewrite.
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	if !adps.Image.Instrumented() || adps.Image.Config.Mode != binimg.ModeProfiling {
		t.Fatalf("image after rewrite: %+v", adps.Image.Config)
	}

	// Profile.
	p, run, err := adps.ProfileScenario(octarine.ScenOldWp0, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalCalls() == 0 || run.Profile != p {
		t.Fatal("profiling returned inconsistent results")
	}

	// Analyze and write the distribution into the binary.
	res, err := adps.Analyze(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distribution) == 0 {
		t.Fatal("analysis produced no distribution")
	}
	// Cannot run distributed before the rewriter writes the map.
	if _, err := adps.RunDistributed(octarine.ScenOldWp0, false); err == nil {
		t.Fatal("distributed run before SetDistribution succeeded")
	}
	if err := adps.WriteDistribution(res); err != nil {
		t.Fatal(err)
	}
	if adps.Image.Config.Mode != binimg.ModeDistribution {
		t.Fatal("binary not in distribution mode")
	}

	// The distributed run loads everything from the binary.
	dres, err := adps.RunDistributed(octarine.ScenOldWp0, false)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Violations != 0 {
		t.Errorf("violations = %d", dres.Violations)
	}
}

func TestProfileScenariosMerges(t *testing.T) {
	t.Parallel()
	adps := New(octarine.New())
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	p, err := adps.ProfileScenarios([]string{octarine.ScenNewDoc, octarine.ScenNewTbl}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Scenarios) != 2 {
		t.Errorf("scenarios = %v", p.Scenarios)
	}
	if _, err := adps.ProfileScenarios(nil, false); err == nil {
		t.Error("empty scenario list accepted")
	}
}

func TestNetworkProfileOnDemand(t *testing.T) {
	t.Parallel()
	adps := New(octarine.New())
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	p, _, err := adps.ProfileScenario(octarine.ScenNewDoc, false)
	if err != nil {
		t.Fatal(err)
	}
	if adps.NetProfile != nil {
		t.Fatal("network profile exists before analysis")
	}
	if _, err := adps.Analyze(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if adps.NetProfile == nil {
		t.Fatal("analysis did not run the network profiler")
	}
	if adps.NetProfile.Name != netsim.TenBaseT.Name {
		t.Errorf("profiled network = %s", adps.NetProfile.Name)
	}
}

func TestScenarioExperimentReport(t *testing.T) {
	t.Parallel()
	adps := New(octarine.New())
	rep, err := adps.ScenarioExperiment(context.Background(), octarine.ScenOldTb3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != octarine.ScenOldTb3 {
		t.Errorf("scenario = %s", rep.Scenario)
	}
	if rep.DefaultComm <= rep.CoignComm {
		t.Errorf("no improvement: default %v vs coign %v", rep.DefaultComm, rep.CoignComm)
	}
	if rep.Savings <= 0.5 {
		t.Errorf("savings = %v", rep.Savings)
	}
	// Prediction error within the paper's ±8% envelope.
	if rep.PredictionErr > 0.08 || rep.PredictionErr < -0.08 {
		t.Errorf("prediction error = %v, want within ±8%%", rep.PredictionErr)
	}
	// The experiment re-arms the image for the next scenario.
	if adps.Image.Config.Mode != binimg.ModeProfiling {
		t.Error("image not re-armed for profiling")
	}
}

func TestClassifierAccuracyTable2Shape(t *testing.T) {
	t.Parallel()
	// Run the Table 2 experiment on Octarine for the key classifiers and
	// verify the paper's qualitative ordering:
	//   - the incremental straw man produces many new classifications on
	//     bigone and the worst correlation;
	//   - ST yields few classifications (one per class) and coarse
	//     granularity (many instances per classification);
	//   - IFCB yields the most classifications, no new classifications on
	//     bigone, and the best correlation.
	adps := New(octarine.New())
	training := scenario.TrainingForApp("octarine")
	big, err := scenario.BigoneForApp("octarine")
	if err != nil {
		t.Fatal(err)
	}
	eval := func(kind classify.Kind) *analysis.ClassifierEval {
		res, err := adps.ClassifierAccuracy(kind, 0, training, big)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		return res
	}
	inc := eval(classify.Incremental)
	st := eval(classify.ST)
	ifcb := eval(classify.IFCB)

	if inc.NewClassifications == 0 {
		t.Error("incremental produced no new classifications on bigone")
	}
	if ifcb.NewClassifications != 0 {
		t.Errorf("ifcb produced %d new classifications on bigone", ifcb.NewClassifications)
	}
	if st.ProfiledClassifications >= ifcb.ProfiledClassifications {
		t.Errorf("ST %d classifications >= IFCB %d", st.ProfiledClassifications, ifcb.ProfiledClassifications)
	}
	if st.AvgInstancesPerClassification <= ifcb.AvgInstancesPerClassification {
		t.Errorf("ST granularity %v <= IFCB %v",
			st.AvgInstancesPerClassification, ifcb.AvgInstancesPerClassification)
	}
	if ifcb.AvgCorrelation < st.AvgCorrelation {
		t.Errorf("IFCB correlation %v < ST %v", ifcb.AvgCorrelation, st.AvgCorrelation)
	}
	if ifcb.AvgCorrelation < 0.9 {
		t.Errorf("IFCB correlation = %v, want high", ifcb.AvgCorrelation)
	}
	// Incremental's accuracy suffers badly on the input-driven synthesis.
	if inc.AvgCorrelation > 0.5 {
		t.Errorf("incremental correlation = %v, suspiciously high", inc.AvgCorrelation)
	}
}

func TestSTPlacementIsDebilitating(t *testing.T) {
	t.Parallel()
	// The ST classifier must assign all instances of a class to the same
	// machine (paper §4.2: "a debilitating feature for all of the
	// applications we examined"). In o_offtb3 the template reader and the
	// 150-page table reader are distinct components with opposite optimal
	// placements; IFCB separates them, ST cannot, so the ST-chosen
	// distribution communicates at least as much.
	commUnder := func(kind classify.Kind) float64 {
		adps := New(octarine.New())
		adps.ClassifierKind = kind
		rep, err := adps.ScenarioExperiment(context.Background(), octarine.ScenOffTb3)
		if err != nil {
			t.Fatal(err)
		}
		return rep.CoignComm.Seconds()
	}
	st := commUnder(classify.ST)
	ifcb := commUnder(classify.IFCB)
	if ifcb > st*1.001 {
		t.Errorf("IFCB distribution (%vs) worse than ST (%vs)", ifcb, st)
	}
}

func TestClassifierAccuracyStackDepthTable3Shape(t *testing.T) {
	t.Parallel()
	// Accuracy and classification counts increase with stack depth and
	// saturate (paper Table 3).
	adps := New(octarine.New())
	training := []string{octarine.ScenOldWp0, octarine.ScenOldBth, octarine.ScenNewMus}
	prev := -1.0
	prevCount := -1
	for _, depth := range []int{1, 3, 0} {
		res, err := adps.ClassifierAccuracy(classify.IFCB, depth, training, octarine.ScenOldBth)
		if err != nil {
			t.Fatal(err)
		}
		if res.ProfiledClassifications < prevCount {
			t.Errorf("depth %d: classifications decreased (%d < %d)",
				depth, res.ProfiledClassifications, prevCount)
		}
		if res.AvgCorrelation < prev-0.05 {
			t.Errorf("depth %d: correlation regressed (%v < %v)", depth, res.AvgCorrelation, prev)
		}
		prev = res.AvgCorrelation
		prevCount = res.ProfiledClassifications
	}
}

func TestClassifierAccuracyErrors(t *testing.T) {
	t.Parallel()
	adps := New(octarine.New())
	if _, err := adps.ClassifierAccuracy(classify.IFCB, 0, nil, octarine.ScenBigone); err == nil {
		t.Error("no training scenarios accepted")
	}
	if _, err := adps.ClassifierAccuracy(classify.IFCB, 0, []string{"o_nope"}, octarine.ScenBigone); err == nil {
		t.Error("bad training scenario accepted")
	}
	if _, err := adps.ClassifierAccuracy(classify.IFCB, 0, []string{octarine.ScenNewDoc}, "o_nope"); err == nil {
		t.Error("bad eval scenario accepted")
	}
}

func TestImageRoundTripThroughDisk(t *testing.T) {
	t.Parallel()
	// The pipeline state survives writing the binary to disk and loading
	// it back — the "end user without source code" workflow.
	adps := New(octarine.New())
	rep, err := adps.ScenarioExperiment(context.Background(), octarine.ScenOldWp7)
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	// Re-create the distribution image and run from a decoded copy.
	p, _, err := adps.ProfileScenario(octarine.ScenOldWp7, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adps.Analyze(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := adps.WriteDistribution(res); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/octarine.img"
	if err := adps.Image.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := binimg.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	adps2 := New(octarine.New())
	adps2.Image = loaded
	dres, err := adps2.RunDistributed(octarine.ScenOldWp7, false)
	if err != nil {
		t.Fatal(err)
	}
	if dres.AppPerMachine[com.Server] == 0 {
		t.Error("distribution loaded from disk placed nothing on the server")
	}
}

// TestProfileScenarioCostsOnlyItsRun guards what profiling through the
// session costs on top of the run itself: ProfileScenario on o_bigone
// allocates at most 2 % more objects than the bare dist.Run profiling run
// of the same scenario (48.0 k). Copying the profile into the binary's
// configuration record (decode, merge, re-encode as JSON on every run)
// cost 6.9 k objects on the first run and 16.8 k on each later one. Each
// side is read as its cheapest of three runs. Not parallel: Mallocs is
// process-wide.
//
//lint:allow paralleltest Mallocs is process-wide
func TestProfileScenarioCostsOnlyItsRun(t *testing.T) {
	adps := New(octarine.New())
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	objects := func(run func() error) uint64 {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	bare := objects(func() error {
		cfg, err := adps.RunConfig(dist.ModeProfiling, octarine.ScenBigone)
		if err != nil {
			return err
		}
		_, err = dist.Run(cfg)
		return err
	})
	session := objects(func() error {
		_, _, err := adps.ProfileScenario(octarine.ScenBigone, false)
		return err
	})
	if limit := bare + bare/50; session > limit {
		t.Errorf("ProfileScenario allocated %d objects, the bare profiling run %d (limit %d)", session, bare, limit)
	}
}

// threeRunExperiment is the experiment on scenario computed the way Execute
// did before it priced a trace: one profiling run, then three real
// executions of the rewritten binary — default, Coign, Coign with jitter.
func threeRunExperiment(t *testing.T, a *ADPS, scenario string) (Experiment, int64) {
	t.Helper()
	if err := a.Instrument(); err != nil {
		t.Fatal(err)
	}
	prof, profiled, err := a.ProfileScenario(scenario, false)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := a.Analyze(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteDistribution(ares); err != nil {
		t.Fatal(err)
	}
	def, err := a.RunDefault(scenario, false)
	if err != nil {
		t.Fatal(err)
	}
	coign, err := a.RunDistributed(scenario, false)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := a.RunDistributed(scenario, true)
	if err != nil {
		t.Fatal(err)
	}
	e := Experiment{
		DefaultComm:     def.Clock.CommTime(),
		CoignComm:       coign.Clock.CommTime(),
		TotalInstances:  coign.AppInstances,
		ServerInstances: coign.AppPerMachine[com.Server],
		Violations:      coign.Violations,
		PredictedExec:   profiled.Clock.ComputeTime() + ares.PredictedComm,
		MeasuredExec:    measured.Clock.Elapsed(),
	}
	if s := 1 - float64(e.CoignComm)/float64(e.DefaultComm); e.DefaultComm > 0 && s > 0 {
		e.Savings = s
	}
	if e.MeasuredExec > 0 {
		e.PredictionErr = float64(e.PredictedExec-e.MeasuredExec) / float64(e.MeasuredExec)
	}
	return e, coign.Unknown
}

// TestExecuteMatchesRuns: Execute's experiment, priced from one traced
// profiling run, equals field for field the one three real executions
// give, on every Table 4 scenario.
func TestExecuteMatchesRuns(t *testing.T) {
	t.Parallel()
	for _, s := range scenario.Table1() {
		s := s
		// The "/caching=false" level keeps the subtest names stable.
		t.Run(s.Name+"/caching=false", func(t *testing.T) {
			t.Parallel()
			session := func() *ADPS {
				app, err := scenario.NewApp(s.App)
				if err != nil {
					t.Fatal(err)
				}
				return New(app)
			}
			rep, err := session().ScenarioExperiment(context.Background(), s.Name)
			if err != nil {
				t.Fatal(err)
			}
			want, unknown := threeRunExperiment(t, session(), s.Name)
			if rep.Experiment != want || rep.Unknown != unknown {
				t.Errorf("Execute %+v unknown %d\nruns    %+v unknown %d", rep.Experiment, rep.Unknown, want, unknown)
			}
		})
	}
}

// TestExecuteNeedsTracedRunOfTheScenario: Execute prices the run it is
// handed, so it refuses no run and a run without a trace, and prices a
// traced ProfileScenario run to the experiment three real executions give.
func TestExecuteNeedsTracedRunOfTheScenario(t *testing.T) {
	t.Parallel()
	scen := octarine.ScenOldTb3
	a := New(octarine.New())
	if err := a.Instrument(); err != nil {
		t.Fatal(err)
	}
	prof, untraced, err := a.ProfileScenario(scen, false)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := a.Analyze(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]*dist.Result{"no run": nil, "untraced run": untraced} {
		if _, err := a.Execute(context.Background(), ares, run); err == nil {
			t.Errorf("%s: executed", name)
		}
	}
	prof, traced, err := a.ProfileScenario(scen, true)
	if err != nil {
		t.Fatal(err)
	}
	if ares, err = a.Analyze(context.Background(), prof); err != nil {
		t.Fatal(err)
	}
	rep, err := a.Execute(context.Background(), ares, traced)
	if err != nil {
		t.Fatal(err)
	}
	want, unknown := threeRunExperiment(t, New(octarine.New()), scen)
	if rep.Scenario != scen || rep.Experiment != want || rep.Unknown != unknown {
		t.Errorf("Execute %s %+v unknown %d\nruns       %+v unknown %d", rep.Scenario, rep.Experiment, rep.Unknown, want, unknown)
	}
}

// TestRunConfig: the session configures every run — its application, seed
// and network in every mode, its classifier for profiling and the default
// distribution, none for the bare binary, and for ModeCoign the classifier
// and map the rewriter wrote into the binary, which exist only once
// WriteDistribution has run.
func TestRunConfig(t *testing.T) {
	t.Parallel()
	a := New(octarine.New())
	a.Seed, a.Network, a.ClassifierKind, a.ClassifierDepth = 5, netsim.ISDN, classify.STCB, 3
	if err := a.Instrument(); err != nil {
		t.Fatal(err)
	}
	scen := octarine.ScenOldWp0
	if _, err := a.RunConfig(dist.ModeCoign, scen); err == nil {
		t.Error("ModeCoign configured before WriteDistribution")
	}
	prof, _, err := a.ProfileScenario(scen, false)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := a.Analyze(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteDistribution(ares); err != nil {
		t.Fatal(err)
	}
	// The record's classifier is the one the binary was instrumented with;
	// the session's own changes after that do not reach a Coign run.
	recorded := classify.New(classify.STCB, 3).Name()
	a.ClassifierKind, a.ClassifierDepth = classify.PCB, 2
	session := classify.New(classify.PCB, 2).Name()
	for _, c := range []struct {
		mode       dist.Mode
		classifier string // "" for none
		mapped     bool
	}{
		{dist.ModeBare, "", false},
		{dist.ModeProfiling, session, false},
		{dist.ModeDefault, session, false},
		{dist.ModeCoign, recorded, true},
	} {
		cfg, err := a.RunConfig(c.mode, scen)
		if err != nil {
			t.Fatalf("mode %d: %v", c.mode, err)
		}
		var got string
		if cfg.Classifier != nil {
			got = cfg.Classifier.Name()
		}
		if cfg.App != a.App || cfg.Scenario != scen || cfg.Mode != c.mode || cfg.Seed != 5 || cfg.Network != netsim.ISDN || got != c.classifier {
			t.Errorf("mode %d: app %v scenario %q mode %d seed %d network %v classifier %q; want classifier %q",
				c.mode, cfg.App == a.App, cfg.Scenario, cfg.Mode, cfg.Seed, cfg.Network.Name, got, c.classifier)
		}
		if c.mapped != (cfg.Distribution != nil) || c.mapped && !reflect.DeepEqual(cfg.Distribution, ares.Distribution) {
			t.Errorf("mode %d: map %v, want the analysis's: %v", c.mode, cfg.Distribution, c.mapped)
		}
		if cfg.Jitter || cfg.Trace != nil || cfg.Faults != nil || cfg.EnableCaching {
			t.Errorf("mode %d: the session set a run's own field: %+v", c.mode, cfg)
		}
	}
	if _, err := a.RunConfig(dist.Mode(99), scen); err == nil {
		t.Error("unknown mode configured")
	}
}

// TestConfigRecordRoundTrip: the record an image carries holds exactly
// what the runtime reads at load — the mode, the classifier, its depth
// and the distribution map — and a Coign run configured from the decoded
// image is the run configured from the image in memory.
func TestConfigRecordRoundTrip(t *testing.T) {
	t.Parallel()
	a := New(octarine.New())
	a.ClassifierKind, a.ClassifierDepth = classify.STCB, 3
	if err := a.Instrument(); err != nil {
		t.Fatal(err)
	}
	scen := octarine.ScenOldWp0
	prof, _, err := a.ProfileScenario(scen, false)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := a.Analyze(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteDistribution(ares); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Image.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// The record is the image's last field: a length-prefixed JSON
	// object ahead of the 4-byte checksum.
	start := bytes.LastIndex(data, []byte(`{"mode":`))
	if start < 4 || int(binary.LittleEndian.Uint32(data[start-4:])) != len(data)-4-start {
		t.Fatalf("no configuration record at the end of the image (start %d)", start)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(data[start:len(data)-4], &members); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	slices.Sort(names)
	if want := []string{"classifier", "classifierDepth", "distribution", "mode"}; !slices.Equal(names, want) {
		t.Errorf("record members %v, want %v", names, want)
	}

	mem, err := a.RunConfig(dist.ModeCoign, scen)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := binimg.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	a.Image = decoded
	got, err := a.RunConfig(dist.ModeCoign, scen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Classifier, mem.Classifier) || got.Classifier.Name() != "stcb-d3" {
		t.Errorf("decoded classifier %s, in memory %s", got.Classifier.Name(), mem.Classifier.Name())
	}
	if decoded.Config.ClassifierDepth != 3 {
		t.Errorf("decoded depth %d, want 3", decoded.Config.ClassifierDepth)
	}
	if len(got.Distribution) == 0 || !maps.Equal(got.Distribution, mem.Distribution) || !maps.Equal(got.Distribution, ares.Distribution) {
		t.Errorf("decoded map %v, in memory %v", got.Distribution, mem.Distribution)
	}

	// A distribution record without a map places nothing: the runtime
	// refuses it.
	decoded.Config.Distribution = nil
	if _, err := a.RunConfig(dist.ModeCoign, scen); err == nil {
		t.Error("a record without a distribution map configured a Coign run")
	}
}

// allocated returns the least objects and bytes of three calls of run.
// Mallocs and TotalAlloc are process-wide: callers are not parallel.
func allocated(t *testing.T, run func() error) (objects, bytes uint64) {
	t.Helper()
	objects, bytes = ^uint64(0), ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestTraceCostsLittle guards what recording the trace adds to the o_bigone
// profiling run: at most 100 objects and 1.5 MB. A trace of one 280-byte
// event per entry, grown by append, added 18.9 MB.
//
//lint:allow paralleltest Mallocs is process-wide
func TestTraceCostsLittle(t *testing.T) {
	adps := New(octarine.New())
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	plainObj, plainB := allocated(t, func() error {
		_, _, err := adps.ProfileScenario(octarine.ScenBigone, false)
		return err
	})
	tracedObj, tracedB := allocated(t, func() error {
		_, _, err := adps.ProfileScenario(octarine.ScenBigone, true)
		return err
	})
	t.Logf("traced run: +%d objects, +%d bytes", tracedObj-plainObj, tracedB-plainB)
	if tracedObj > plainObj+100 || tracedB > plainB+1_500_000 {
		t.Errorf("traced run allocated %d objects / %d B, untraced %d / %d: over +100 objects / +1.5 MB",
			tracedObj, tracedB, plainObj, plainB)
	}
}

// TestFoldCostsLittle guards what profiling adds to a run of o_bigone:
// the objects a profiling run allocates beyond the bare binary's run —
// the runtime's hooks, the classifier and the profile's fold — at most
// 800, its measured 705 to 728 (the race build counts the most) + 10 %.
// It was 3,684 while the profile kept its edges and methods in
// string-keyed maps and each edge's two histograms in maps of their own.
//
//lint:allow paralleltest Mallocs is process-wide
func TestFoldCostsLittle(t *testing.T) {
	adps := New(octarine.New())
	objects := func(mode dist.Mode) uint64 {
		n, _ := allocated(t, func() error {
			cfg, err := adps.RunConfig(mode, octarine.ScenBigone)
			if err != nil {
				return err
			}
			_, err = dist.Run(cfg)
			return err
		})
		return n
	}
	bare, profiling := objects(dist.ModeBare), objects(dist.ModeProfiling)
	t.Logf("profiling run: %d objects, bare run %d: +%d", profiling, bare, profiling-bare)
	if profiling > bare+800 {
		t.Errorf("profiling run allocated %d objects, bare run %d: over +800", profiling, bare)
	}
}

// TestScenarioExperimentAllocs guards the experiment on o_bigone at 110 k
// objects. Executing the scenario three times after profiling it, instead
// of replaying the profiling run's trace twice, cost about 183 k.
//
//lint:allow paralleltest Mallocs is process-wide
func TestScenarioExperimentAllocs(t *testing.T) {
	objects, _ := allocated(t, func() error {
		_, err := New(octarine.New()).ScenarioExperiment(context.Background(), octarine.ScenBigone)
		return err
	})
	t.Logf("ScenarioExperiment: %d objects", objects)
	if objects > 110_000 {
		t.Errorf("ScenarioExperiment on o_bigone allocated %d objects, limit 110000", objects)
	}
}
