package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/binimg"
	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/purity"
	"repro/internal/reach"
	"repro/internal/scenario"
	"repro/internal/staticanal"
	"repro/internal/synthapp"
)

// synthAppSeed fixes which generated applications synth-sweep and
// service-burst run. The run's -seed drives pipeline.Spec.Seed — profiling
// inputs, network sampling, jitter — but not the application's shape: across
// generator seeds one sweep's time spread by 22 % and its allocations by
// 14 %, which would drown any bound worth having.
const synthAppSeed = 1

var spineApps = workload{
	name: "spine-apps",
	why:  "the paper's Table 4/5 experiment on its three apps; dist profiling and replays are 97% of it",
	// One sweep to take the references plus five more: 2.3 s.
	warmup:    5,
	heapAfter: 15,
	setup: func(e *env) (*instance, error) {
		var specs []pipeline.Spec
		for _, app := range []string{"octarine", "photodraw", "benefits"} {
			big, err := scenario.BigoneForApp(app)
			if err != nil {
				return nil, err
			}
			specs = append(specs, pipeline.Spec{Scenarios: []string{big}, Compare: true, Seed: e.cfg.seed})
		}
		return newSpine(e, specs)
	},
}

var synthSweep = workload{
	name: "synth-sweep",
	why:  "24 small generated apps with coverage, replication and alias on; image building is two thirds of it, dist a fifth",
	// 2.2 s of sweeps.
	warmup:    26,
	heapAfter: 80,
	setup: func(e *env) (*instance, error) {
		var specs []pipeline.Spec
		for _, fam := range synthapp.Families() {
			for _, scale := range []int{1, 2, 4} {
				specs = append(specs, pipeline.Spec{
					App:       fmt.Sprintf("synth:%s:%d:%d", fam, synthAppSeed, scale),
					Scenarios: []string{synthapp.ScenBigone},
					Coverage:  true, Replicate: true, Alias: true,
					Seed: e.cfg.seed,
				})
			}
		}
		return newSpine(e, specs)
	},
}

// spine runs a fixed list of specs through pipeline.Run per op. With tracing
// on, every op is followed, outside its timed window, by the same stages
// stepped one span each and by direct probes of what cannot be stepped into.
type spine struct {
	e     *env
	specs []pipeline.Spec
	refs  [][]byte           // canonical bytes of each spec's first run
	wants []outcome          // what the stepped spine must reproduce
	last  []*pipeline.Result // the traced op's results, for the probes after it
	// Sizes seen by the traced run's probes, summed over specs and ops.
	probes, imageBytes, resultBytes, graphNodes, graphEdges int
}

// outcome is the part of a pipeline.Result the stepped spine is held to.
type outcome struct {
	predicted, dflt time.Duration
	instances       pipeline.Sides
	placements      []pipeline.Placement
}

func newSpine(e *env, specs []pipeline.Spec) (*instance, error) {
	s := &spine{e: e, specs: specs, last: make([]*pipeline.Result, len(specs))}
	for _, spec := range specs {
		res, b, err := s.direct(spec)
		if err != nil {
			return nil, err
		}
		s.refs = append(s.refs, b)
		s.wants = append(s.wants, outcome{res.PredictedComm, res.DefaultComm, res.Instances, res.ServerPlacements})
	}
	return &instance{op: s.op, check: s.probe, layers: s.layers}, nil
}

// direct is the op body for one spec: run and encode.
func (s *spine) direct(spec pipeline.Spec) (*pipeline.Result, []byte, error) {
	var res *pipeline.Result
	var b []byte
	var err error
	s.e.rec.do("pipeline.run", func() { res, err = pipeline.Run(s.e.ctx, spec) })
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.App, err)
	}
	s.e.rec.do("pipeline.marshal", func() { b, err = pipeline.MarshalResult(res) })
	return res, b, err
}

func (s *spine) op(int) (float64, error) {
	var share float64
	for i, spec := range s.specs {
		res, b, err := s.direct(spec)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(b, s.refs[i]) {
			return 0, fmt.Errorf("%s: result differs from the first run of the same spec", res.Spec.App)
		}
		if x := res.Experiment; x != nil && x.Violations != 0 {
			return 0, fmt.Errorf("%s: %d constraint violations in the distributed run", res.Spec.App, x.Violations)
		}
		share += float64(res.PredictedComm) / float64(res.DefaultComm)
		if s.e.rec != nil {
			s.last[i] = res
		}
	}
	return share / float64(len(s.specs)), nil
}

// stepped runs one spec stage by stage, exactly as pipeline.Run and
// core.ScenarioExperiment do, and fails unless it reproduces their outcome.
func (s *spine) stepped(spec pipeline.Spec, want outcome) error {
	rec, ctx := s.e.rec, s.e.ctx
	var err error
	fail := func(stage string) error { return fmt.Errorf("%s: stepped %s: %w", spec.App, stage, err) }
	if spec, err = spec.Normalized(); err != nil {
		return fail("spec")
	}
	var (
		ares       *analysis.Result
		prof       *profile.Profile
		violations int
	)
	rec.do("pipeline.stepped", func() {
		var app *com.App
		if rec.do("scenario.new_app", func() { app, err = scenario.NewApp(spec.App) }); err != nil {
			return
		}
		model, merr := netsim.ByName(spec.Network)
		kind, kerr := classify.KindByName(spec.Classifier)
		if err = firstOf(merr, kerr); err != nil {
			return
		}
		var adps *core.ADPS
		rec.do("core.new", func() { adps = core.New(app) })
		adps.Network, adps.ClassifierKind, adps.ClassifierDepth, adps.Seed = model, kind, spec.Depth, spec.Seed
		adps.AnalysisOptions.ExactPricing = spec.ExactPricing
		adps.AnalysisOptions.PurityTheta = spec.Theta
		adps.AnalysisOptions.Replicate = spec.Replicate
		adps.AnalysisOptions.Arena = graph.NewCutArena()
		if spec.Replicate {
			adps.AnalysisOptions.ReplicaArena = graph.NewCutArena()
		}
		if spec.Alias {
			if rec.do("core.enable_alias", func() { err = adps.EnableAlias() }); err != nil {
				return
			}
		}
		if rec.do("binimg.instrument", func() { err = adps.Instrument() }); err != nil {
			return
		}
		scen := spec.Scenarios[0]
		analyze := func() {
			if rec.do("netsim.sample_model", func() { err = adps.ProfileNetwork() }); err != nil {
				return
			}
			rec.do("analysis.analyze", func() {
				ares, err = analysis.Analyze(ctx, prof, adps.NetProfile, adps.App, adps.AnalysisOptions)
			})
		}
		if !spec.Compare {
			if rec.do("dist.profile_run", func() { prof, err = adps.ProfileScenarios(spec.Scenarios, false) }); err != nil {
				return
			}
			if spec.Coverage {
				var cov *reach.Coverage
				rec.do("reach.coverage", func() { cov = adps.Reach.Coverage(prof) })
				if cs := adps.AnalysisOptions.Constraints; cs != nil {
					cov.InstallConstraints(cs)
				}
			}
			analyze()
			return
		}
		if rec.do("dist.profile_run", func() { prof, _, err = adps.ProfileScenario(scen, false) }); err != nil {
			return
		}
		if analyze(); err != nil {
			return
		}
		if rec.do("binimg.set_distribution", func() { err = adps.WriteDistribution(ares) }); err != nil {
			return
		}
		if rec.do("dist.replay_default", func() { _, err = adps.RunDefault(scen, false) }); err != nil {
			return
		}
		rec.do("dist.replay_coign", func() {
			if r, rerr := adps.RunDistributed(scen, false); rerr != nil {
				err = rerr
			} else {
				violations = r.Violations
			}
		})
		if err != nil {
			return
		}
		if rec.do("dist.replay_jitter", func() { _, err = adps.RunDistributed(scen, true) }); err != nil {
			return
		}
		rec.do("binimg.instrument", func() { err = adps.Instrument() })
	})
	if err != nil {
		return fail("run")
	}

	var placements []pipeline.Placement
	if !spec.Compare {
		for _, cp := range ares.ServerComponents(prof) {
			placements = append(placements, pipeline.Placement(cp))
		}
	}
	got := outcome{ares.PredictedComm, ares.DefaultComm,
		pipeline.Sides{Client: ares.ClientInstances, Server: ares.ServerInstances}, placements}
	if !reflect.DeepEqual(got, want) || violations != 0 {
		return fmt.Errorf("%s: stepped spine diverges from pipeline.Run: %+v, want %+v; %d violations", spec.App, got, want, violations)
	}
	return nil
}

func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probe follows a traced op, outside its timed window. Per spec it steps the
// spine, then calls each static scan, the graph builder and the cut directly
// on one prebuilt image and the op's own profile — work pipeline.Run does
// inside core.New and analysis.Analyze, where a span from outside cannot
// reach.
func (s *spine) probe(int) error {
	rec := s.e.rec
	if rec == nil {
		return nil
	}
	for i, spec := range s.specs {
		if err := s.stepped(spec, s.wants[i]); err != nil {
			return err
		}
		spec, err := spec.Normalized()
		if err != nil {
			return err
		}
		app, err := scenario.NewApp(spec.App)
		if err != nil {
			return err
		}
		var img *binimg.Image
		rec.do("binimg.build_image", func() { img = binimg.BuildImage(app) })
		var buf bytes.Buffer
		if err := img.Encode(&buf); err != nil {
			return fmt.Errorf("%s: encoding image: %w", spec.App, err)
		}
		s.imageBytes += buf.Len()

		var rg *reach.Graph
		var errs [4]error
		rec.do("staticanal.analyze", func() { _, errs[0] = staticanal.Analyze(app, img) })
		rec.do("reach.scan", func() { rg, errs[1] = reach.Scan(img, app) })
		rec.do("purity.scan", func() { _, errs[2] = purity.Scan(img, app, rg) })
		rec.do("alias.scan", func() { _, errs[3] = alias.Scan(img, app, rg) })
		if err := firstOf(errs[:]...); err != nil {
			return fmt.Errorf("%s: static scan: %w", spec.App, err)
		}

		res := s.last[i]
		s.probes++
		s.resultBytes += len(s.refs[i])
		prof := res.Profile
		if prof == nil { // compare mode keeps its profile to itself
			if prof, _, err = res.ADPS.ProfileScenario(spec.Scenarios[0], false); err != nil {
				return err
			}
		}
		var g *graph.Graph
		rec.do("analysis.build_graph", func() {
			g, _ = analysis.BuildGraph(prof, res.ADPS.NetProfile, app.Classes, res.ADPS.AnalysisOptions)
		})
		s.graphNodes += g.Len()
		s.graphEdges += g.Edges()
		rec.do("graph.pipeline_cut", func() { _, err = g.MinCutArena(s.e.ctx, graph.NewCutArena()) })
		if err != nil {
			return fmt.Errorf("%s: cutting the probe graph: %w", spec.App, err)
		}
	}
	return nil
}

func (s *spine) layers(m map[string]float64) error {
	if s.probes == 0 {
		return fmt.Errorf("the traced loop ran no op")
	}
	n := float64(s.probes)
	m["binimg.image_kb"] = float64(s.imageBytes) / 1024 / n
	m["pipeline.result_bytes"] = float64(s.resultBytes) / n
	m["analysis.graph_nodes"] = float64(s.graphNodes) / n
	m["analysis.graph_edges"] = float64(s.graphEdges) / n

	by := s.e.rec.byName()
	var distRuns int
	var distAlloc uint64
	for _, name := range []string{"dist.profile_run", "dist.replay_default", "dist.replay_coign", "dist.replay_jitter"} {
		if st := by[name]; st != nil {
			distRuns += st.count()
			distAlloc += st.alloc
		}
	}
	m["dist.alloc_mb_per_run"] = float64(distAlloc) / 1e6 / float64(distRuns)
	// What pipeline.Run spends outside the stages stepped above: the
	// stepped root's children cover the stages, its self time is the glue.
	root := by["pipeline.stepped"]
	m["pipeline.unattributed_ms"] = m["pipeline.run_ms"] - (root.meanMs() - root.selfMs/float64(root.count()))
	return nil
}
