// Package pipeline is the single entry point for a complete Coign ADPS
// run: resolve the application, apply programmer constraints, profile the
// requested scenarios, cut the concrete graph, and summarize the chosen
// distribution. The coign CLI subcommands and the job service both build a
// Spec and call Run, so one partitioning request produces byte-identical
// results no matter which surface submitted it.
package pipeline

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/span"
)

// Spec is one partitioning request. The zero value plus at least one
// scenario is a valid request; Normalized fills the defaults. Specs are
// plain data — they arrive as CLI flags or as an HTTP job body.
type Spec struct {
	// App is the application name ("octarine", ..., or
	// "synth:<family>:<seed>[:<scale>]"). Empty means: inferred from the
	// first scenario via the Table 1 catalog.
	App string `json:"app,omitempty"`
	// Scenarios are the profiling scenarios whose merged profile feeds the
	// cut. At least one is required.
	Scenarios []string `json:"scenarios"`
	// Network is the network model name; default 10BaseT.
	Network string `json:"network,omitempty"`
	// Classifier is the instance classifier name; default ifcb.
	Classifier string `json:"classifier,omitempty"`
	// Depth is the classifier stack-walk depth (0 = complete); it must not
	// be negative.
	Depth int `json:"depth,omitempty"`
	// Pins are programmer-supplied absolute constraints: class name to
	// "client" or "server". Every profiled classification of the class is
	// pinned; a pin matching no classification is an error.
	Pins map[string]string `json:"pins,omitempty"`
	// Coverage additionally diffs the profile against the static
	// reachability graph and welds every uncovered edge before cutting.
	Coverage bool `json:"coverage,omitempty"`
	// Replicate additionally cuts the replication-aware network.
	Replicate bool `json:"replicate,omitempty"`
	// Alias additionally runs the points-to analysis over opaque payloads
	// and refines the static constraint set and purity closure with it
	// before cutting (see core.EnableAlias).
	Alias bool `json:"alias,omitempty"`
	// Theta is the read-mostly purity threshold, in [0, 1); 0 selects the
	// default.
	Theta float64 `json:"theta,omitempty"`
	// ExactPricing prices edges from exact byte totals instead of bucket
	// representatives.
	ExactPricing bool `json:"exactPricing,omitempty"`
	// Compare runs the full end-to-end experiment — write the distribution
	// into the binary, execute default and Coign placements, measure — and
	// fills Result.Experiment. Requires exactly one scenario and no
	// Coverage.
	Compare bool `json:"compare,omitempty"`
	// Seed drives all stochastic components; default 1.
	Seed int64 `json:"seed,omitempty"`
}

// Normalized returns the spec with defaults filled in and cross-field
// rules enforced. Run normalizes internally; callers normalize early only
// when they want the canonical spec (e.g. to persist it with a job).
func (s Spec) Normalized() (Spec, error) {
	if len(s.Scenarios) == 0 {
		return s, fmt.Errorf("pipeline: spec needs at least one scenario")
	}
	return s.checked()
}

// checked is Normalized without the rule that a spec names a scenario,
// which only a run that profiles needs: Open and Analyze take a spec that
// names just the app.
func (s Spec) checked() (Spec, error) {
	if s.App == "" {
		if len(s.Scenarios) == 0 {
			return s, fmt.Errorf("pipeline: cannot infer app: spec names neither an app nor a scenario")
		}
		info, err := scenario.Lookup(s.Scenarios[0])
		if err != nil {
			return s, fmt.Errorf("pipeline: cannot infer app: %w", err)
		}
		s.App = info.App
	}
	if s.Network == "" {
		s.Network = "10BaseT"
	}
	if s.Classifier == "" {
		s.Classifier = "ifcb"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	// A negative depth walks the whole stack like 0 but encodes
	// differently, so one cut would have two canonical specs.
	if s.Depth < 0 {
		return s, fmt.Errorf("pipeline: depth %d: must be 0 (complete) or positive", s.Depth)
	}
	// A write fraction lies in [0, 1]: at θ ≥ 1 every called component
	// grades read-mostly, and NaN cannot be encoded into the result.
	if !(s.Theta >= 0 && s.Theta < 1) {
		return s, fmt.Errorf("pipeline: theta %v: must be in [0, 1) (0 = default)", s.Theta)
	}
	for class, m := range s.Pins {
		if m != "client" && m != "server" {
			return s, fmt.Errorf("pipeline: pin %s=%q: machine must be client or server", class, m)
		}
	}
	if s.Compare {
		if len(s.Scenarios) != 1 {
			return s, fmt.Errorf("pipeline: compare mode needs exactly one scenario, got %d", len(s.Scenarios))
		}
		if s.Coverage {
			return s, fmt.Errorf("pipeline: compare mode does not support coverage constraints")
		}
	}
	return s, nil
}

// Sides is a client/server pair of counts.
type Sides struct {
	Client int64 `json:"client"`
	Server int64 `json:"server"`
}

// Placement is one server-side class with its profiled instance count.
type Placement = analysis.ComponentPlacement

// Experiment is the end-to-end comparison of Compare mode: the measured
// default and Coign communication times and the prediction accuracy (the
// Tables 4 and 5 columns).
type Experiment = core.Experiment

// Result is one run's canonical outcome. Every exported JSON field is
// deterministic for a given spec: slices are sorted or catalog-ordered and
// durations marshal as integer nanoseconds, so two runs of the same
// normalized spec — CLI or service, today or after a restart — encode to
// identical bytes. The stage spans (wall clock and heap) and internal
// handles carry `json:"-"` and never enter the canonical encoding.
type Result struct {
	Spec Spec `json:"spec"`

	Classifications Sides `json:"classifications"`
	Instances       Sides `json:"instances"`

	PredictedComm     time.Duration `json:"predictedCommNs"`
	DefaultComm       time.Duration `json:"defaultCommNs"`
	Savings           float64       `json:"savings"`
	DefaultViolations int           `json:"defaultViolations"`

	Constrained         int `json:"constrained"`
	NonRemotableEdges   int `json:"nonRemotableEdges"`
	StaticCoLocations   int `json:"staticCoLocations"`
	CoverageCoLocations int `json:"coverageCoLocations"`
	Findings            int `json:"findings"`

	// Alias-refinement outcome (only with Spec.Alias): pair-wise aliasing
	// constraints installed in place of opaque cliques, alias welds applied
	// to the cut graph, and profiled non-remotable edges cleared of their
	// conservative dynamic weld by the points-to refiner.
	AliasPairs          int `json:"aliasPairs,omitempty"`
	AliasCoLocations    int `json:"aliasCoLocations,omitempty"`
	NonRemotableCleared int `json:"nonRemotableCleared,omitempty"`

	// ServerPlacements lists every server-side classification, sorted by
	// classification id.
	ServerPlacements []Placement `json:"serverPlacements,omitempty"`

	// Replicated lists replication-eligible nodes actually cloned by the
	// replication-aware cut (only with Spec.Replicate).
	Replicated     []string      `json:"replicated,omitempty"`
	ReplicatedComm time.Duration `json:"replicatedCommNs,omitempty"`

	// Experiment is only set in Compare mode.
	Experiment *Experiment `json:"experiment,omitempty"`

	// Stages are the run's spans in the order they began (DESIGN §9):
	// the top-level stages tile the run, and each child lies inside its
	// parent. Excluded from the canonical encoding — telemetry.
	Stages []span.Span `json:"-"`

	// Internal handles for callers that drill further (DOT rendering,
	// distribution maps, drift watchdogs). Never serialized.
	Analysis *analysis.Result `json:"-"`
	Profile  *profile.Profile `json:"-"`
	ADPS     *core.ADPS       `json:"-"`
}

// Open builds the configured analysis session a spec asks for: it
// resolves the application (by name, "synth:..." included, or from the
// first scenario), the network model and the classifier, opens the
// session and fails on a failed static scan, and applies the spec's seed,
// analysis options and alias refinement. It is the one place a session is
// built from names; Run and every command that needs one call it.
func Open(spec Spec) (*core.ADPS, error) {
	spec, err := spec.checked()
	if err != nil {
		return nil, err
	}
	app, err := scenario.NewApp(spec.App)
	if err != nil {
		return nil, err
	}
	model, err := netsim.ByName(spec.Network)
	if err != nil {
		return nil, err
	}
	kind, err := classify.KindByName(spec.Classifier)
	if err != nil {
		return nil, err
	}
	adps := core.New(app)
	if err := adps.Err(); err != nil {
		return nil, err
	}
	adps.Network = model
	adps.ClassifierKind = kind
	adps.ClassifierDepth = spec.Depth
	adps.Seed = spec.Seed
	adps.AnalysisOptions.ExactPricing = spec.ExactPricing
	adps.AnalysisOptions.PurityTheta = spec.Theta
	adps.AnalysisOptions.Replicate = spec.Replicate
	// One arena per session: every cut the session performs shares the CSR
	// arrays, and repeated analyses of one topology warm-start from the
	// previous flow. The replicated cut runs on a different topology —
	// replicated nodes' edges vanish — so it gets its own arena rather
	// than forcing the shared one to restage on every alternation.
	adps.AnalysisOptions.Arena = graph.NewCutArena()
	if spec.Replicate {
		adps.AnalysisOptions.ReplicaArena = graph.NewCutArena()
	}
	// Alias refinement replaces the constraint set, so it precedes the
	// coverage installation that adds pairs to that set.
	if spec.Alias {
		if err := adps.EnableAlias(); err != nil {
			return nil, err
		}
	}
	return adps, nil
}

// Run executes one partitioning request end to end: open the session,
// instrument, profile, install coverage constraints, apply the pins, cut,
// summarize, and in Compare mode execute the chosen distribution. The
// context reaches the cut engine: cancelling it aborts the run mid-cut.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	spec, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	return run(ctx, spec, nil)
}

// Analyze is Run for a caller that already holds the profile — logs read
// back from .icc files — and so skips instrumenting and profiling. The
// spec need name no scenario, only the app; Compare fails, since the
// session profiled nothing to predict an execution from.
func Analyze(ctx context.Context, spec Spec, prof *profile.Profile) (*Result, error) {
	spec, err := spec.checked()
	if err != nil {
		return nil, err
	}
	return run(ctx, spec, prof)
}

// run is the one path behind Run and Analyze, on a checked spec; it
// profiles the spec's scenarios unless the caller brought the profile.
// Each stage is a span on the run's own recorder, which the result keeps.
func run(ctx context.Context, spec Spec, prof *profile.Profile) (*Result, error) {
	ctx, rec := span.NewRecorder(ctx)
	sp := span.Begin(ctx, "open")
	adps, err := Open(spec)
	sp.End()
	if err != nil {
		return nil, err
	}
	var traced *dist.Result
	if prof == nil {
		sp = span.Begin(ctx, "instrument")
		err = adps.Instrument()
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = span.Begin(ctx, "profile")
		if spec.Compare {
			// Execute prices the comparison from this run's trace.
			prof, traced, err = adps.ProfileScenario(spec.Scenarios[0], true)
		} else {
			prof, err = adps.ProfileScenarios(spec.Scenarios, false)
		}
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	sp = span.Begin(ctx, "constraints")
	if spec.Coverage {
		// Uncovered statically reachable edges become conservative
		// co-location welds.
		adps.Reach.Coverage(prof).InstallConstraints(adps.AnalysisOptions.Constraints)
	}
	err = applyPins(adps, prof, spec.Pins)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = span.Begin(ctx, "analyze")
	ares, err := adps.Analyze(ctx, prof)
	sp.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, ADPS: adps}
	if spec.Alias {
		res.AliasPairs = len(adps.AnalysisOptions.Constraints.AliasPairs)
	}
	res.fillAnalysis(ares, prof)
	if spec.Compare {
		sp = span.Begin(ctx, "execute")
		rep, err := adps.Execute(ctx, ares, traced)
		sp.End()
		if err != nil {
			return nil, err
		}
		res.Experiment = &rep.Experiment
	}
	res.Stages = rec.Spans()
	return res, nil
}

// applyPins installs programmer-supplied absolute constraints: every
// profiled classification of a pinned class goes to the named machine.
func applyPins(adps *core.ADPS, prof *profile.Profile, pins map[string]string) error {
	if len(pins) == 0 {
		return nil
	}
	adps.AnalysisOptions.ExtraPins = map[string]com.Machine{}
	// Sorted class order so error reporting is deterministic.
	classes := make([]string, 0, len(pins))
	for class := range pins {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		m := com.Client // Normalized admits only "client" and "server"
		if pins[class] == "server" {
			m = com.Server
		}
		matched := 0
		for _, ci := range prof.Classifications {
			if ci.Class == class {
				adps.AnalysisOptions.ExtraPins[ci.ID] = m
				matched++
			}
		}
		if matched == 0 {
			return fmt.Errorf("pipeline: pin %s matched no profiled classifications", class)
		}
	}
	return nil
}

// fillAnalysis copies the analysis engine's outcome into the canonical
// result fields. A Compare result lists no server placements: its
// canonical bytes are the Tables 4 and 5 rows, which carry the counts only.
func (r *Result) fillAnalysis(ares *analysis.Result, prof *profile.Profile) {
	r.Analysis = ares
	r.Profile = prof
	r.Classifications = Sides{
		Client: int64(ares.ClientClassifications),
		Server: int64(ares.ServerClassifications),
	}
	r.Instances = Sides{Client: ares.ClientInstances, Server: ares.ServerInstances}
	r.PredictedComm = ares.PredictedComm
	r.DefaultComm = ares.DefaultComm
	r.Savings = ares.Savings()
	r.DefaultViolations = ares.DefaultViolations
	r.Constrained = ares.Constrained
	r.NonRemotableEdges = ares.NonRemotableEdges
	r.StaticCoLocations = ares.StaticCoLocations
	r.CoverageCoLocations = ares.CoverageCoLocations
	r.AliasCoLocations = ares.AliasCoLocations
	r.NonRemotableCleared = ares.NonRemotableCleared
	r.Findings = len(ares.Findings)
	r.Replicated = ares.Replicated
	r.ReplicatedComm = ares.ReplicatedComm
	if !r.Spec.Compare {
		r.ServerPlacements = ares.ServerComponents(prof)
	}
}
