// Package analysis implements Coign's profile analysis engine (paper §2):
// it combines component communication profiles and component location
// constraints into an abstract inter-component communication graph,
// concretizes it with a network profile into communication times, cuts it
// with the highest-label push-relabel minimum-cut algorithm, and emits the
// distribution the component factory will enforce.
package analysis

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/com"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/profile"
	"repro/internal/purity"
	"repro/internal/staticanal"
)

// Options tunes the analysis.
type Options struct {
	// ExactPricing prices edges from exact byte totals instead of bucket
	// representatives (the bucketing-accuracy ablation).
	ExactPricing bool
	// Constraints, when set, is the static analyzer's constraint set: its
	// pins and pair-wise co-location constraints are installed into the
	// graph before cutting, and its verifier cross-checks the profile and
	// the chosen cut (divergences land in Result.Findings). When nil the
	// engine falls back to per-class API inference alone.
	Constraints *staticanal.ConstraintSet
	// ExtraPins force named classifications to machines, modeling the
	// paper's programmer-supplied absolute constraints.
	ExtraPins map[string]com.Machine
	// Purity, when set, is the static purity analyzer's report: profiled
	// components are graded Stateless/ReadMostly/Stateful (surfaced in
	// Result.Purity) and the purity verifier cross-checks profile-observed
	// mutations against static read-only claims (findings land in
	// Result.Findings).
	Purity *purity.Report
	// PurityTheta is the read-mostly threshold; <= 0 selects
	// purity.DefaultTheta.
	PurityTheta float64
	// Replicate additionally cuts the replication-aware network: every
	// replication-eligible node's edges are removed (graph.Replicate) and
	// the replicated cut is reported alongside the plain one, with an
	// invariant finding if it ever costs more.
	Replicate bool
	// Alias, when set, is the points-to refiner backing
	// Constraints.Refined: its zero-miss verifier cross-checks the
	// prediction against the profile (findings land in Result.Findings).
	// Supplying it does not refine Constraints — pass an already-refined
	// set for that.
	Alias staticanal.OpaqueRefiner
	// Arena, when set, backs the plain minimum cut with a reusable
	// graph.CutArena: callers that analyze the same application repeatedly
	// (per network model, per profile window) reuse the CSR arrays and
	// warm-start push-relabel from the previous flow instead of cutting
	// cold every time. Nil cuts one-shot. Not safe for concurrent Analyze
	// calls sharing one arena.
	Arena *graph.CutArena
	// ReplicaArena is Arena for the replication-aware cut, which runs on a
	// different topology (replicated nodes' edges vanish) and so must not
	// alternate with the plain cut in one arena — that would restage on
	// every call instead of warm-starting.
	ReplicaArena *graph.CutArena
}

// KindReplicationRegression is the error-severity finding kind for a
// replicated cut costlier than the plain one: replication only removes
// edges, so it can only mean a broken replication set or cut.
const KindReplicationRegression = "replication-regression"

// Result is the analysis engine's output.
type Result struct {
	// Graph is the concrete (network-priced) ICC graph.
	Graph *graph.Graph
	// Cut is the minimum cut chosen by the push-relabel core.
	Cut *graph.Cut
	// Distribution maps every classification to a machine.
	Distribution map[string]com.Machine
	// PredictedComm is the communication time of the chosen distribution
	// under the network profile.
	PredictedComm time.Duration
	// DefaultComm is the predicted communication time of the developer's
	// default distribution (classes at their Home machines), priced with
	// true edge weights even when that distribution violates constraints.
	DefaultComm time.Duration
	// DefaultViolations counts co-location constraints the default
	// distribution splits. A non-zero value means the default placement is
	// not actually realizable (a non-remotable interface would cross the
	// network); DefaultComm still reports the finite communication time so
	// savings stay meaningful.
	DefaultViolations int
	// ServerClassifications and ClientClassifications count cut sides.
	ServerClassifications int
	ClientClassifications int
	// ServerInstances and ClientInstances weight the sides by profiled
	// instance counts — the numbers reported in the paper's distribution
	// figures.
	ServerInstances int64
	ClientInstances int64
	// NonRemotableEdges counts co-location constraints from opaque
	// parameters (the black lines of Figures 4 and 5).
	NonRemotableEdges int
	// Constrained counts classifications pinned by static analysis.
	Constrained int
	// StaticCoLocations counts profile edges welded by the static
	// constraint set (before any dynamic opaque-parameter evidence).
	StaticCoLocations int
	// CoverageCoLocations counts classification pairs welded because a
	// statically reachable ICC edge was never exercised by the training
	// scenarios (see reach.Coverage.InstallConstraints).
	CoverageCoLocations int
	// AliasCoLocations counts classification pairs welded by the
	// points-to refinement's alias pairs (classes sharing mutable state
	// through an intermediary).
	AliasCoLocations int
	// NonRemotableCleared counts profile edges whose dynamic
	// non-remotable evidence the points-to refinement explained away as
	// immutable payload exchange (the weld was skipped).
	NonRemotableCleared int
	// Findings is the static/dynamic verifier's output: cross-check
	// divergences and (never expected) cut-constraint violations.
	Findings []staticanal.Finding
	// Purity is the profile-folded component grading (nil unless
	// Options.Purity was supplied).
	Purity *purity.Grading
	// ReplicatedCut is the minimum cut of the replication-aware network
	// (nil unless Options.Replicate).
	ReplicatedCut *graph.Cut
	// ReplicatedComm is the communication time of the replicated cut.
	ReplicatedComm time.Duration
	// Replicated lists the nodes actually replicated, sorted (eligible
	// nodes that are pinned or welded are skipped).
	Replicated []string
}

// BuildStats summarizes the constraints installed during graph
// construction.
type BuildStats struct {
	// Constrained counts classifications pinned to a machine.
	Constrained int
	// NonRemotable counts edges welded by dynamic opaque-parameter
	// evidence in the profile.
	NonRemotable int
	// StaticCoLocations counts edges welded by the static constraint set.
	StaticCoLocations int
	// CoverageCoLocations counts pairs welded by scenario-coverage
	// constraints.
	CoverageCoLocations int
	// AliasCoLocations counts pairs welded by points-to alias pairs.
	AliasCoLocations int
	// NonRemotableCleared counts dynamic non-remotable welds the
	// points-to refinement cleared.
	NonRemotableCleared int
}

// BuildGraph constructs the concrete communication graph for a profile:
// one node per classification, edges priced under the network profile,
// pins and pair-wise welds from the static constraint set (falling back
// to per-class API inference when no set is supplied), and co-location
// for dynamically observed non-remotable edges.
func BuildGraph(p *profile.Profile, np *netsim.Profile, classes *com.ClassRegistry, opts Options) (*graph.Graph, BuildStats) {
	g := graph.New()
	g.Pin(profile.MainProgram, graph.SourceSide)

	var st BuildStats
	// Intern nodes in sorted order: node indices decide the edge-key order,
	// and with it the flow network's layout; map-order interning made the
	// tie-breaks between equal-cost cuts drift across runs.
	for _, id := range p.ClassificationIDs() {
		g.Node(id)
	}
	if cs := opts.Constraints; cs != nil {
		applied := cs.ApplyToGraph(g, p)
		st.Constrained = applied.Pins
		st.StaticCoLocations = applied.CoLocations
		st.CoverageCoLocations = applied.CoverageCoLocations
		st.AliasCoLocations = applied.AliasCoLocations
	} else {
		for id, ci := range p.Classifications {
			if m, _, ok := staticanal.InferPin(classes.LookupName(ci.Class)); ok {
				st.Constrained++
				if m == com.Client {
					g.Pin(id, graph.SourceSide)
				} else {
					g.Pin(id, graph.SinkSide)
				}
			}
		}
	}
	for id, m := range opts.ExtraPins {
		if m == com.Client {
			g.Pin(id, graph.SourceSide)
		} else {
			g.Pin(id, graph.SinkSide)
		}
	}

	for k, e := range p.Edges {
		var t time.Duration
		if opts.ExactPricing {
			t = e.ExactTime(np)
		} else {
			t = e.Time(np)
		}
		g.AddEdge(k.Src, k.Dst, t)
		if e.NonRemotable {
			// A refined constraint set (see staticanal.Refined) may explain
			// the dynamic evidence away as an immutable payload exchange; an
			// unrefined set always welds.
			if cs := opts.Constraints; cs != nil &&
				!cs.ObservedNonRemotableWeld(classNameOf(p, k.Src), classNameOf(p, k.Dst)) {
				st.NonRemotableCleared++
				continue
			}
			st.NonRemotable++
			g.CoLocate(k.Src, k.Dst)
		}
	}
	return g, st
}

// Analyze runs the complete engine: graph construction, minimum cut, and
// distribution extraction. The context is threaded into the push-relabel
// core, so a cancelled or expired job aborts mid-cut instead of running
// the flow to completion.
func Analyze(ctx context.Context, p *profile.Profile, np *netsim.Profile, app *com.App, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil || np == nil || app == nil {
		return nil, fmt.Errorf("analysis: profile, network profile, and application are required")
	}
	g, st := BuildGraph(p, np, app.Classes, opts)
	var cut *graph.Cut
	var err error
	if opts.Arena != nil {
		cut, err = g.MinCutArena(ctx, opts.Arena)
	} else {
		cut, err = g.MinCutCtx(ctx)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", p.App, err)
	}

	res := &Result{
		Graph:               g,
		Cut:                 cut,
		Distribution:        make(map[string]com.Machine, len(cut.Assignment)),
		PredictedComm:       cut.Cost,
		NonRemotableEdges:   st.NonRemotable,
		Constrained:         st.Constrained,
		StaticCoLocations:   st.StaticCoLocations,
		CoverageCoLocations: st.CoverageCoLocations,
		AliasCoLocations:    st.AliasCoLocations,
		NonRemotableCleared: st.NonRemotableCleared,
	}
	for i, side := range cut.Assignment {
		id := g.Name(i)
		if id == profile.MainProgram {
			continue
		}
		m := com.Client
		if side == graph.SinkSide {
			m = com.Server
		}
		res.Distribution[id] = m
		ci := p.Classifications[id]
		var n int64 = 0
		if ci != nil {
			n = ci.Instances
		}
		if side == graph.SinkSide {
			res.ServerClassifications++
			res.ServerInstances += n
		} else {
			res.ClientClassifications++
			res.ClientInstances += n
		}
	}

	// Default distribution: every classification at its class's Home.
	def := make(map[string]graph.Side, len(p.Classifications))
	def[profile.MainProgram] = graph.SourceSide
	for id, ci := range p.Classifications {
		side := graph.SourceSide
		if cl := app.Classes.LookupName(ci.Class); cl != nil && cl.Home != com.Client {
			side = graph.SinkSide
		}
		def[id] = side
	}
	// Price the default with true weights, even where it splits a
	// co-located pair; the violation count is reported alongside.
	res.DefaultComm, res.DefaultViolations = g.EvaluateAssignmentDetail(def)

	// Verifier: cross-check the static prediction against the observed ICC
	// and the chosen cut against every constraint. With the constraints
	// installed as pins and infinite-weight edges, cut violations should be
	// impossible; divergences surface as findings, never failures.
	if cs := opts.Constraints; cs != nil {
		res.Findings = append(res.Findings, cs.CrossCheck(p)...)
		res.Findings = append(res.Findings, cs.CheckCut(p, res.Distribution)...)
	}
	// The points-to refiner's zero-miss check: every profile-observed
	// non-remotable transfer must be statically predicted, or refining
	// welds on its say-so would be unsound.
	if opts.Alias != nil {
		res.Findings = append(res.Findings, opts.Alias.Verify(p)...)
	}

	// Purity grading and the replication-aware cut. Replication only ever
	// removes edges, so the replicated cut can never cost more than the
	// plain one; a violation of that invariant is an engine bug and
	// surfaces as an error finding.
	if opts.Purity != nil {
		res.Purity = opts.Purity.Grade(p, opts.PurityTheta)
		res.Findings = append(res.Findings, opts.Purity.Verify(p)...)
		if opts.Replicate {
			rg, replicated := g.Replicate(res.Purity.Replication.Classifications)
			var rcut *graph.Cut
			if opts.ReplicaArena != nil {
				rcut, err = rg.MinCutArena(ctx, opts.ReplicaArena)
			} else {
				rcut, err = rg.MinCutCtx(ctx)
			}
			if err != nil {
				return nil, fmt.Errorf("analysis: %s: replicated cut: %w", p.App, err)
			}
			res.ReplicatedCut = rcut
			res.ReplicatedComm = rcut.Cost
			res.Replicated = replicated
			if rcut.Cost > cut.Cost {
				res.Findings = append(res.Findings, staticanal.Finding{
					Kind: KindReplicationRegression, Severity: staticanal.SeverityError,
					Detail: fmt.Sprintf("replicated cut costs %v, more than the plain cut's %v", rcut.Cost, cut.Cost),
				})
			}
		}
	}
	return res, nil
}

// classNameOf maps a classification id to its class name ("" for the
// main program and unknown classifications).
func classNameOf(p *profile.Profile, id string) string {
	if ci := p.Classifications[id]; ci != nil {
		return ci.Class
	}
	return ""
}

// ServerComponents returns the classifications the cut placed on the
// server, sorted, with their classes and instance counts — the data behind
// the paper's distribution figures.
func (r *Result) ServerComponents(p *profile.Profile) []ComponentPlacement {
	var out []ComponentPlacement
	for id, m := range r.Distribution {
		if m != com.Server {
			continue
		}
		cp := ComponentPlacement{Classification: id}
		if ci := p.Classifications[id]; ci != nil {
			cp.Class = ci.Class
			cp.Instances = ci.Instances
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Classification < out[j].Classification })
	return out
}

// ComponentPlacement names one classification's placement: its class and
// profiled instance count. The tags are the pipeline result's
// serverPlacements encoding.
type ComponentPlacement struct {
	Classification string `json:"classification"`
	Class          string `json:"class"`
	Instances      int64  `json:"instances"`
}

// Savings returns the fractional reduction in predicted communication time
// relative to the default distribution (0 when the default is already
// optimal).
func (r *Result) Savings() float64 {
	if r.DefaultComm <= 0 {
		return 0
	}
	s := 1 - float64(r.PredictedComm)/float64(r.DefaultComm)
	if s < 0 {
		return 0
	}
	return s
}
