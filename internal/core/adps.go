// Package core implements the Coign Automatic Distributed Partitioning
// System pipeline (paper Figure 1): starting from an application binary,
// the binary rewriter produces an instrumented binary; scenario-based
// profiling produces abstract ICC data; the network profiler produces
// network data; the profile analysis engine cuts the concrete graph to
// choose the best distribution; and the rewriter writes the distribution
// into the binary, which the lightweight runtime then realizes at the next
// execution.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/binimg"
	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/dist"
	"repro/internal/logger"
	"repro/internal/netsim"
	"repro/internal/profile"
	"repro/internal/purity"
	"repro/internal/reach"
	"repro/internal/span"
	"repro/internal/staticanal"
)

// ADPS is the partitioning pipeline for one application and its one
// analysis session: New builds the original image once and scans it in
// dependency order, EnableAlias scans the same image again, and a scan
// that fails fails every later step (see Err).
type ADPS struct {
	App     *com.App
	Network *netsim.Model

	// Image is the application binary in its current pipeline state:
	// original → instrumented → carrying a distribution.
	Image *binimg.Image
	// NetProfile is the network profiler's output.
	NetProfile *netsim.Profile

	ClassifierKind  classify.Kind
	ClassifierDepth int
	// AnalysisOptions tunes the analysis engine.
	AnalysisOptions analysis.Options
	// Static is the static analyzer's report for the application binary,
	// derived once at pipeline construction; its constraint set feeds the
	// analysis engine.
	Static *staticanal.Report
	// Reach is the static activation-reachability graph recovered from the
	// original binary's relocation records, derived once at pipeline
	// construction. Diffed against a profile it yields the scenario-coverage
	// report (see reach.Graph.Coverage).
	Reach *reach.Graph
	// Purity is the static state-mutability report recovered from the
	// original binary's state records, derived once at pipeline
	// construction. AnalysisOptions.Purity is the report that feeds
	// component grading and the purity verifier: this one, until
	// EnableAlias replaces it with the alias-refined closure.
	Purity *purity.Report
	// Alias is the points-to analysis over opaque payloads, derived on
	// demand by EnableAlias (nil until then).
	Alias *alias.Result
	// Seed drives all stochastic components reproducibly.
	Seed int64

	// err is the first static scan New failed (see Err).
	err error
}

// New returns a pipeline with the paper's defaults: 10BaseT, the IFCB
// classifier with complete stack walks, and the application's original
// binary image, statically scanned. It always returns a session; a scan
// that failed is kept in it (see Err).
func New(app *com.App) *ADPS {
	a := &ADPS{
		App:            app,
		Network:        netsim.TenBaseT,
		Image:          binimg.BuildImage(app),
		ClassifierKind: classify.IFCB,
		Seed:           1,
	}
	a.err = a.scan()
	return a
}

// scan runs the static analyses over the original binary, before any
// scenario executes, in dependency order: the constraint set that steers
// every cut, the reachability graph, then the purity closure over that
// graph. It stops at the first failure.
func (a *ADPS) scan() error {
	var err error
	if a.Static, err = staticanal.Analyze(a.App, a.Image); err != nil {
		return fmt.Errorf("core: %s: static constraint analysis: %w", a.App.Name, err)
	}
	a.AnalysisOptions.Constraints = a.Static.Constraints
	if a.Reach, err = reach.Scan(a.Image, a.App); err != nil {
		return fmt.Errorf("core: %s: reachability scan: %w", a.App.Name, err)
	}
	if a.Purity, err = purity.Scan(a.Image, a.App, a.Reach); err != nil {
		return fmt.Errorf("core: %s: purity scan: %w", a.App.Name, err)
	}
	a.AnalysisOptions.Purity = a.Purity
	return nil
}

// Err reports the static scan that failed when the session was opened,
// wrapped with the application and the scan's name; nil when all
// succeeded. A failed scan must never yield a cut with fewer constraints,
// so Instrument, EnableAlias and Analyze return this
// error instead of working from partial results, and Static, Reach and
// Purity are non-nil exactly when it is nil.
func (a *ADPS) Err() error { return a.err }

// EnableAlias runs the points-to analysis over opaque payloads and
// installs its refinement into the pipeline: the constraint set is
// replaced by its alias-refined copy (opaque cliques give way to
// truly-aliasing pairs, see staticanal.Refined), the purity closure is
// derived again from the session's classification so impurity propagates
// only across may-alias edges (see purity.Report.Refined), and the
// refiner's zero-miss verifier joins the analysis findings. The scan reads
// the session's image — rewriting leaves its record sections alone. Call
// it before installing coverage constraints so coverage pairs land in the
// refined set. Idempotent; on failure nothing is installed.
func (a *ADPS) EnableAlias() error {
	if a.err != nil {
		return a.err
	}
	if a.Alias != nil {
		return nil
	}
	ar, err := alias.Scan(a.Image, a.App, a.Reach)
	if err != nil {
		return fmt.Errorf("core: %s: alias scan: %w", a.App.Name, err)
	}
	a.Alias = ar
	a.AnalysisOptions.Alias = ar
	a.AnalysisOptions.Constraints = a.AnalysisOptions.Constraints.Refined(ar)
	a.AnalysisOptions.Purity = a.Purity.Refined(func(x, y string) bool {
		p := ar.Shared(x, y)
		return p != nil && p.Mutable
	})
	return nil
}

// Instrument runs the binary rewriter: the Coign runtime is inserted into
// the first import slot and a profiling configuration record is appended.
func (a *ADPS) Instrument() error {
	if a.err != nil {
		return a.err
	}
	img, err := binimg.Instrument(a.Image, a.ClassifierKind.String(), a.ClassifierDepth)
	if err != nil {
		return err
	}
	a.Image = img
	return nil
}

// networkSamples is the number of observations per message size the
// network profiler takes.
const networkSamples = 25

// ProfileNetwork runs the network profiler, statistically sampling message
// times for representative DCOM message sizes over the configured network.
// The sample depends on the network and the session seed, not on the
// application: netsim.Sampled takes it once per process and every session
// with the same two shares it, read-only, as its NetProfile.
func (a *ADPS) ProfileNetwork() error {
	np, err := netsim.Sampled(a.Network, a.Seed, networkSamples)
	if err != nil {
		return err
	}
	a.NetProfile = np
	return nil
}

// ProfileScenario runs the instrumented binary through one profiling
// scenario and returns its ICC profile. With trace the run also stores its
// event trace (the result's Trace), so Execute can price the default and
// Coign distributions from this one execution.
func (a *ADPS) ProfileScenario(scenario string, trace bool) (*profile.Profile, *dist.Result, error) {
	if a.Image == nil || !a.Image.Instrumented() {
		return nil, nil, fmt.Errorf("core: application binary is not instrumented")
	}
	cfg, err := a.RunConfig(dist.ModeProfiling, scenario)
	if err != nil {
		return nil, nil, err
	}
	if trace {
		cfg.Trace = logger.NewTrace()
	}
	res, err := dist.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.Profile, res, nil
}

// ProfileScenarios profiles several scenarios and merges their logs, the
// combining step the analysis engine consumes. A merged profile has no
// one trace, so trace must be false.
func (a *ADPS) ProfileScenarios(scenarios []string, trace bool) (*profile.Profile, error) {
	if trace {
		return nil, fmt.Errorf("core: a merged profile keeps no trace; trace one scenario with ProfileScenario")
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("core: no profiling scenarios")
	}
	var combined *profile.Profile
	for _, s := range scenarios {
		p, _, err := a.ProfileScenario(s, false)
		if err != nil {
			return nil, fmt.Errorf("core: scenario %s: %w", s, err)
		}
		if combined == nil {
			combined = p
			continue
		}
		if err := combined.Merge(p); err != nil {
			return nil, err
		}
	}
	return combined, nil
}

// Analyze runs the profile analysis engine over a profile, using the
// sampled network profile (running the network profiler on demand). The
// context is threaded into the cut engine: a cancelled analysis job
// aborts mid-cut with the context's error.
func (a *ADPS) Analyze(ctx context.Context, p *profile.Profile) (*analysis.Result, error) {
	if a.err != nil {
		return nil, a.err
	}
	if a.NetProfile == nil {
		if err := a.ProfileNetwork(); err != nil {
			return nil, err
		}
	}
	return analysis.Analyze(ctx, p, a.NetProfile, a.App, a.AnalysisOptions)
}

// WriteDistribution rewrites the binary's configuration record with the
// chosen distribution, replacing the profiling instrumentation with the
// lightweight distribution runtime.
func (a *ADPS) WriteDistribution(res *analysis.Result) error {
	img, err := binimg.SetDistribution(a.Image, res.Distribution)
	if err != nil {
		return err
	}
	a.Image = img
	return nil
}

// RunConfig is the configuration the session executes scenario under in
// mode, the one place a run is configured: the session's application, seed
// and network, and
//   - ModeBare: no classifier, the original binary;
//   - ModeProfiling and ModeDefault: the session's classifier;
//   - ModeCoign: the classifier and distribution map read back from the
//     binary's configuration record, exactly as the lightweight runtime
//     does at application load, so it fails before WriteDistribution.
//
// Callers change only the run's own fields (Jitter, Trace, Faults,
// EnableCaching), or place with their own map (Mode, Distribution).
func (a *ADPS) RunConfig(mode dist.Mode, scenario string) (dist.Config, error) {
	cfg := dist.Config{App: a.App, Scenario: scenario, Seed: a.Seed, Mode: mode, Network: a.Network}
	switch mode {
	case dist.ModeBare:
	case dist.ModeProfiling, dist.ModeDefault:
		cfg.Classifier = classify.New(a.ClassifierKind, a.ClassifierDepth)
	case dist.ModeCoign:
		if a.Image == nil || a.Image.Config == nil {
			return dist.Config{}, fmt.Errorf("core: binary has no configuration record")
		}
		rec := a.Image.Config
		if rec.Mode != binimg.ModeDistribution {
			return dist.Config{}, fmt.Errorf("core: binary is in %q mode, not distribution", rec.Mode)
		}
		if cfg.Distribution = rec.Distribution; len(cfg.Distribution) == 0 {
			return dist.Config{}, fmt.Errorf("core: binary carries no distribution map")
		}
		kind, err := classify.KindByName(rec.Classifier)
		if err != nil {
			return dist.Config{}, err
		}
		cfg.Classifier = classify.New(kind, rec.ClassifierDepth)
	default:
		return dist.Config{}, fmt.Errorf("core: unknown run mode %d", mode)
	}
	return cfg, nil
}

// RunDefault executes the application in the developer's default
// distribution.
func (a *ADPS) RunDefault(scenario string, jitter bool) (*dist.Result, error) {
	return a.run(dist.ModeDefault, scenario, jitter)
}

// RunDistributed executes the application in the distribution recorded in
// its binary.
func (a *ADPS) RunDistributed(scenario string, jitter bool) (*dist.Result, error) {
	return a.run(dist.ModeCoign, scenario, jitter)
}

// run executes scenario under the session's configuration for mode.
func (a *ADPS) run(mode dist.Mode, scenario string, jitter bool) (*dist.Result, error) {
	cfg, err := a.RunConfig(mode, scenario)
	if err != nil {
		return nil, err
	}
	cfg.Jitter = jitter
	return dist.Run(cfg)
}

// Experiment is the measured outcome of one end-to-end experiment: the
// Tables 4 and 5 columns plus the figure-level placement counts. It is
// also the experiment block of the pipeline's canonical result, so the
// field order and tags are part of that encoding.
type Experiment struct {
	// Table 4: communication time.
	DefaultComm time.Duration `json:"defaultCommNs"`
	CoignComm   time.Duration `json:"coignCommNs"`
	Savings     float64       `json:"savings"`
	// Table 5: execution time.
	PredictedExec time.Duration `json:"predictedExecNs"`
	MeasuredExec  time.Duration `json:"measuredExecNs"`
	PredictionErr float64       `json:"predictionErr"`
	// Figure data: instances placed.
	TotalInstances  int `json:"totalInstances"`
	ServerInstances int `json:"serverInstances"`
	// Violations counts non-remotable boundaries the Coign run crossed.
	Violations int `json:"violations"`
}

// ScenarioReport is the outcome of one end-to-end experiment on one
// scenario: the measured rows plus the analysis they were predicted from.
type ScenarioReport struct {
	Scenario string
	Experiment
	// Analysis-side numbers.
	Analysis *analysis.Result
	// Unknown counts instantiations the Coign run could not classify.
	Unknown int64
}

// ScenarioExperiment performs the full pipeline on one scenario: profile
// it, analyze, write the distribution into the binary, then execute both
// the default and the Coign-chosen distribution and compare against the
// prediction. The application is optimized for the chosen scenario before
// execution, as in paper §4.5.
func (a *ADPS) ScenarioExperiment(ctx context.Context, scenario string) (*ScenarioReport, error) {
	if !a.Image.Instrumented() {
		if err := a.Instrument(); err != nil {
			return nil, err
		}
	}
	prof, traced, err := a.ProfileScenario(scenario, true)
	if err != nil {
		return nil, err
	}
	ares, err := a.Analyze(ctx, prof)
	if err != nil {
		return nil, err
	}
	return a.Execute(ctx, ares, traced)
}

// Execute is the run half of an experiment on the scenario of traced, a
// traced ProfileScenario run that ares was analyzed from: it writes the
// analysis engine's distribution into the binary, prices the scenario
// under the default and the Coign-chosen distribution, and compares a
// measured execution against the prediction. The prediction starts from the traced
// run's compute time. Table 4's columns replay its trace (dist.Replay
// charges what the runtime charges) under the default distribution and
// under the map read back from the rewritten binary. Table 5's measured
// time is a real run with network jitter, so its error is a gap between
// model and execution. A run without a trace is refused. Execute leaves the
// image re-armed for profiling. The two replays and the measured run are
// spans on ctx's recorder, if it carries one.
func (a *ADPS) Execute(ctx context.Context, ares *analysis.Result, traced *dist.Result) (*ScenarioReport, error) {
	if traced == nil || traced.Trace == nil || traced.Profile == nil || len(traced.Profile.Scenarios) != 1 {
		return nil, fmt.Errorf("core: Execute prices the trace of one traced ProfileScenario run")
	}
	scenario := traced.Profile.Scenarios[0]
	if err := a.WriteDistribution(ares); err != nil {
		return nil, err
	}
	defCfg, err := a.RunConfig(dist.ModeDefault, scenario)
	if err != nil {
		return nil, err
	}
	sp := span.Begin(ctx, "replay_default")
	def, err := dist.Replay(defCfg, traced.Trace)
	sp.End()
	if err != nil {
		return nil, err
	}
	cfg, err := a.RunConfig(dist.ModeCoign, scenario)
	if err != nil {
		return nil, err
	}
	sp = span.Begin(ctx, "replay_coign")
	coign, err := dist.Replay(cfg, traced.Trace)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = span.Begin(ctx, "measured")
	cfg.Jitter = true
	measured, err := dist.Run(cfg)
	sp.End()
	if err != nil {
		return nil, err
	}

	rep := &ScenarioReport{
		Scenario: scenario,
		Experiment: Experiment{
			DefaultComm:     def.Clock.CommTime(),
			CoignComm:       coign.Clock.CommTime(),
			TotalInstances:  coign.AppInstances,
			ServerInstances: coign.AppPerMachine[com.Server],
			Violations:      coign.Violations,
		},
		Analysis: ares,
		Unknown:  coign.Unknown,
	}
	if rep.DefaultComm > 0 {
		s := 1 - float64(rep.CoignComm)/float64(rep.DefaultComm)
		if s > 0 {
			rep.Savings = s
		}
	}
	// Predicted execution time: profiled compute plus the analysis
	// engine's communication prediction. Measured: the distributed run's
	// virtual clock with jitter, classifier effects, and remote
	// activations included.
	rep.PredictedExec = traced.Clock.ComputeTime() + ares.PredictedComm
	rep.MeasuredExec = measured.Clock.Elapsed()
	if rep.MeasuredExec > 0 {
		rep.PredictionErr = float64(rep.PredictedExec-rep.MeasuredExec) / float64(rep.MeasuredExec)
	}
	// Re-arm the image for the next experiment: back to profiling mode.
	if err := a.Instrument(); err != nil {
		return nil, err
	}
	return rep, nil
}

// ClassifierAccuracy runs the Table 2 experiment for one classifier on
// the session's application, network and seed: every profiling scenario
// is run with its event trace stored, then the evaluation scenario
// (bigone), and the classifier's ability to correlate the two is measured
// from the traces. One session serves every row of a table.
func (a *ADPS) ClassifierAccuracy(kind classify.Kind, depth int,
	scenarios []string, evalScenario string) (*analysis.ClassifierEval, error) {
	np := netsim.ExactProfile(a.Network, netsim.DefaultSampleSizes)
	traced := func(scenario string, seed int64) (*logger.Trace, error) {
		cfg, err := a.RunConfig(dist.ModeProfiling, scenario)
		if err != nil {
			return nil, err
		}
		cfg.Seed, cfg.Classifier, cfg.Trace = seed, classify.New(kind, depth), logger.NewTrace()
		if _, err := dist.Run(cfg); err != nil {
			return nil, err
		}
		return cfg.Trace, nil
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("core: no profiling scenarios")
	}
	training := make([]*logger.Trace, len(scenarios))
	for i, s := range scenarios {
		tr, err := traced(s, a.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: profiling %s: %w", s, err)
		}
		training[i] = tr
	}
	eval, err := traced(evalScenario, a.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("core: evaluating %s: %w", evalScenario, err)
	}
	ev, err := analysis.EvaluateClassifier(training, eval, np)
	if err != nil {
		return nil, err
	}
	ev.Depth = depth
	return ev, nil
}
