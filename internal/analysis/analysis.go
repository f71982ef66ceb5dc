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
	"repro/internal/span"
	"repro/internal/staticanal"
)

// Options tunes the analysis.
type Options struct {
	// ExactPricing prices edges from exact byte totals instead of bucket
	// representatives (the bucketing-accuracy ablation).
	ExactPricing bool
	// Constraints is the static analyzer's constraint set: BuildGraph
	// installs its pins and pair-wise co-location constraints into the
	// graph before cutting, and its verifier cross-checks the profile and
	// the chosen cut (divergences land in Result.Findings). Analyze
	// refuses a nil set: a cut is never less constrained than the static
	// analysis says.
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
	// BuildStats counts the constraints BuildGraph installed.
	BuildStats
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
	// Constrained counts classifications pinned by static analysis.
	Constrained int
	// NonRemotableEdges counts profile edges welded by dynamic
	// opaque-parameter evidence (the black lines of Figures 4 and 5).
	NonRemotableEdges int
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
}

// sideOf is the cut side a machine is on: the client is the source.
func sideOf(m com.Machine) graph.Side {
	if m == com.Client {
		return graph.SourceSide
	}
	return graph.SinkSide
}

// BuildGraph constructs the concrete communication graph for a profile
// and installs every constraint the cut honours: one node per
// classification, the main program pinned to the client, edges priced
// under the network profile, the static set's pins (then
// Options.ExtraPins, which override them) and welds, and co-location for
// dynamically observed non-remotable edges. With a nil Options.Constraints
// it installs no static constraint; Analyze refuses that. classes is
// unread.
func BuildGraph(p *profile.Profile, np *netsim.Profile, classes *com.ClassRegistry, opts Options) (*graph.Graph, BuildStats) {
	g := graph.New()
	g.Pin(profile.MainProgram, graph.SourceSide)
	cs := opts.Constraints
	if cs == nil {
		cs = new(staticanal.ConstraintSet) // the empty set installs nothing
	}

	var st BuildStats
	// Intern nodes in id order, the order the profile lists them in: node
	// indices decide the edge-key order, and with it the flow network's
	// layout; map-order interning made the tie-breaks between equal-cost
	// cuts drift across runs.
	for _, ci := range p.Classifications {
		g.Node(ci.ID)
		if pin, ok := cs.Pins[ci.Class]; ok {
			st.Constrained++
			g.Pin(ci.ID, sideOf(pin.Machine))
		}
	}
	for id, m := range opts.ExtraPins {
		g.Pin(id, sideOf(m))
	}

	// Edges reach the graph by index: node[n] is the node of profile
	// classification number n, made when an edge first names it.
	node := make([]int, p.Numbered())
	for n := range node {
		node[n] = -1
	}
	nodeOf := func(n int32) int {
		if node[n] < 0 {
			node[n] = g.Node(p.Name(n))
		}
		return node[n]
	}
	for _, e := range p.Edges {
		var t time.Duration
		if opts.ExactPricing {
			t = e.ExactTime(np)
		} else {
			t = e.Time(np)
		}
		src, dst := nodeOf(e.Src), nodeOf(e.Dst)
		g.AddEdgeAt(src, dst, t)
		srcClass, dstClass := p.ClassOf(e.Src), p.ClassOf(e.Dst)
		if srcClass != "" && dstClass != "" {
			if _, weld := cs.MustCoLocate(srcClass, dstClass); weld {
				st.StaticCoLocations++
				g.CoLocateAt(src, dst)
			}
		}
		if !e.NonRemotable {
			continue
		}
		// A refined constraint set (see staticanal.Refined) may explain
		// the dynamic evidence away as an immutable payload exchange; an
		// unrefined set always welds.
		if !cs.ObservedNonRemotableWeld(srcClass, dstClass) {
			st.NonRemotableCleared++
			continue
		}
		st.NonRemotableEdges++
		g.CoLocateAt(src, dst)
	}

	// Coverage and alias pairs weld classes that need no profile edge
	// between them (the scenarios never drove the edge, or the payload
	// travelled through an intermediary): weld the cross-product of the
	// two classes' classifications. A pair whose endpoints the location
	// rules pin to different machines cannot be honored without making the
	// graph infeasible; it is skipped, and the cut relies on the pins.
	if len(cs.CoveragePairs) == 0 && len(cs.AliasPairs) == 0 {
		return g, st
	}
	byClass := make(map[string][]string)
	for _, ci := range p.Classifications {
		byClass[ci.Class] = append(byClass[ci.Class], ci.ID)
	}
	weld := func(pairs []staticanal.Pair) (welded int) {
		for _, pair := range pairs {
			pa, oka := cs.Pins[pair.A]
			pb, okb := cs.Pins[pair.B]
			if oka && okb && pa.Machine != pb.Machine {
				continue
			}
			for _, a := range byClass[pair.A] {
				for _, b := range byClass[pair.B] {
					g.CoLocate(a, b)
					welded++
				}
			}
		}
		return welded
	}
	st.CoverageCoLocations = weld(cs.CoveragePairs)
	st.AliasCoLocations = weld(cs.AliasPairs)
	return g, st
}

// Analyze runs the complete engine: graph construction, minimum cut, and
// distribution extraction. The context is threaded into the push-relabel
// core, so a cancelled or expired job aborts mid-cut instead of running
// the flow to completion. The graph build, the cut, the checks and the
// replicated cut are spans on ctx's recorder, if it carries one.
func Analyze(ctx context.Context, p *profile.Profile, np *netsim.Profile, app *com.App, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil || np == nil || app == nil {
		return nil, fmt.Errorf("analysis: profile, network profile, and application are required")
	}
	if opts.Constraints == nil {
		return nil, fmt.Errorf("analysis: %s: no constraint set; a cut without one would drop every static pin and weld", p.App)
	}
	sp := span.Begin(ctx, "build_graph")
	g, st := BuildGraph(p, np, app.Classes, opts)
	sp.End()
	var cut *graph.Cut
	var err error
	sp = span.Begin(ctx, "cut")
	if opts.Arena != nil {
		cut, err = g.MinCutArena(ctx, opts.Arena)
	} else {
		cut, err = g.MinCutCtx(ctx)
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", p.App, err)
	}

	res := &Result{
		Graph:         g,
		Cut:           cut,
		Distribution:  make(map[string]com.Machine, len(cut.Assignment)),
		PredictedComm: cut.Cost,
		BuildStats:    st,
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
		ci := p.Classification(id)
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
	for _, ci := range p.Classifications {
		side := graph.SourceSide
		if cl := app.Classes.LookupName(ci.Class); cl != nil && cl.Home != com.Client {
			side = graph.SinkSide
		}
		def[ci.ID] = side
	}
	// Price the default with true weights, even where it splits a
	// co-located pair; the violation count is reported alongside.
	res.DefaultComm, res.DefaultViolations = g.EvaluateAssignmentDetail(def)

	// Verifier: cross-check the static prediction against the observed ICC
	// and the chosen cut against every constraint. With the constraints
	// installed as pins and infinite-weight edges, cut violations should be
	// impossible; divergences surface as findings, never failures.
	sp = span.Begin(ctx, "check")
	res.Findings = append(res.Findings, opts.Constraints.CrossCheck(p)...)
	res.Findings = append(res.Findings, opts.Constraints.CheckCut(p, res.Distribution)...)
	// The points-to refiner's zero-miss check: every profile-observed
	// non-remotable transfer must be statically predicted, or refining
	// welds on its say-so would be unsound.
	if opts.Alias != nil {
		res.Findings = append(res.Findings, opts.Alias.Verify(p)...)
	}
	sp.End()

	// Purity grading and the replication-aware cut. Replication only ever
	// removes edges, so the replicated cut can never cost more than the
	// plain one; a violation of that invariant is an engine bug and
	// surfaces as an error finding.
	if opts.Purity != nil {
		res.Purity = opts.Purity.Grade(p, opts.PurityTheta)
		res.Findings = append(res.Findings, opts.Purity.Verify(p)...)
		if opts.Replicate {
			sp = span.Begin(ctx, "replicated_cut")
			rg, replicated := g.Replicate(res.Purity.Replication.Classifications)
			var rcut *graph.Cut
			if opts.ReplicaArena != nil {
				rcut, err = rg.MinCutArena(ctx, opts.ReplicaArena)
			} else {
				rcut, err = rg.MinCutCtx(ctx)
			}
			sp.End()
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
		if ci := p.Classification(id); ci != nil {
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
