package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/logger"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/purity"
	"repro/internal/staticanal"
	"repro/internal/synthapp"
)

// Full-pipeline property harness: for a generated synthetic application,
// run reach → staticanal → coverage → profile → cut → distributed replay
// and assert the cross-stage invariants no single-stage unit test can
// see. Infrastructure failures (a stage erroring out) come back as
// errors; invariant violations come back as failed checks in the report,
// so a matrix run can keep going and summarize everything it found.

// PipelineCheck is one named invariant verdict.
type PipelineCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// PipelineReport is the outcome of the property harness on one generated
// application.
type PipelineReport struct {
	Family string `json:"family"`
	Seed   int64  `json:"seed"`
	Scale  int    `json:"scale,omitempty"`
	App    string `json:"app"`

	Classes           int     `json:"classes"`
	GraphNodes        int     `json:"graphNodes"`
	GraphEdges        int     `json:"graphEdges"`
	CutWeight         float64 `json:"cutWeight"`
	RelaxedWeight     float64 `json:"relaxedWeight"`
	ReplicatedWeight  float64 `json:"replicatedWeight"`
	Replicated        int     `json:"replicated"`
	DefaultViolations int     `json:"defaultViolations"`
	UncoveredEdges    int     `json:"uncoveredEdges"`

	// Alias-refined pipeline pass (see the alias stage of
	// RunPipelineProperty): the refined cut weight, the aliasing pairs the
	// refiner installed, and the welded-class-pair footprint before and
	// after refinement.
	RefinedCutWeight float64 `json:"refinedCutWeight"`
	AliasPairs       int     `json:"aliasPairs"`
	BaselineWelds    int     `json:"baselineWelds"`
	RefinedWelds     int     `json:"refinedWelds"`

	// The bigone's map sweep (SweepMaps, 0 maps over its cap): the product
	// cut's replay minus the optimum.
	MapsSwept    int           `json:"mapsSwept"`
	ProductGapNs time.Duration `json:"productGapNs"`

	Checks []PipelineCheck `json:"checks"`
	Failed int             `json:"failed"`
}

func (r *PipelineReport) check(name string, ok bool, detail string) {
	if ok {
		detail = ""
	} else {
		r.Failed++
	}
	r.Checks = append(r.Checks, PipelineCheck{Name: name, OK: ok, Detail: detail})
}

// RunPipelineProperty generates the application for cfg and drives it
// through the complete pipeline, recording every invariant verdict.
func RunPipelineProperty(ctx context.Context, cfg synthapp.Config) (*PipelineReport, error) {
	a, err := synthapp.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rep := &PipelineReport{
		Family:  string(cfg.Family),
		Seed:    cfg.Seed,
		Scale:   a.Config.Scale,
		App:     a.App.Name,
		Classes: a.App.Classes.Len(),
	}
	if a.Config.Scale == 1 {
		rep.Scale = 0 // omit the default from JSON
	}

	// Generator invariants: the app is well formed and regenerating it is
	// byte-identical (the reproducibility contract `coign synth` exposes).
	verr := synthapp.Validate(a.App)
	rep.check("app-validates", verr == nil, fmt.Sprint(verr))
	if b, gerr := synthapp.Generate(cfg); gerr != nil {
		return nil, gerr
	} else {
		var ab, bb bytes.Buffer
		if err := binimg.BuildImage(a.App).Encode(&ab); err != nil {
			return nil, err
		}
		if err := binimg.BuildImage(b.App).Encode(&bb); err != nil {
			return nil, err
		}
		rep.check("regeneration-byte-identical", bytes.Equal(ab.Bytes(), bb.Bytes()), "second Generate produced a different image")
	}

	// The production path: reach → staticanal → profile → coverage
	// (installing a conservative co-location constraint for every
	// uncovered edge) → cut, with the replication-aware cut alongside so
	// its monotonicity invariant is swept on every topology.
	spec := pipeline.Spec{
		App:       fmt.Sprintf("synth:%s:%d:%d", cfg.Family, cfg.Seed, a.Config.Scale),
		Scenarios: a.Training,
		Coverage:  true,
		Replicate: true,
		Seed:      cfg.Seed + 1,
	}
	run, err := pipeline.Run(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: pipeline run of %s: %w", a.App.Name, err)
	}
	adps, prof, ares := run.ADPS, run.Profile, run.Analysis
	cov := adps.Reach.Coverage(prof)
	uncoveredEdge := make(map[[2]string]bool)
	for _, e := range cov.Edges {
		if !e.Covered {
			uncoveredEdge[[2]string{e.Src, e.Dst}] = true
			rep.UncoveredEdges++
		}
	}
	// The planted latent activation edges must surface as uncovered.
	for _, pair := range a.LatentPairs {
		rep.check("latent-edge-uncovered",
			uncoveredEdge[[2]string{pair[0], pair[1]}],
			fmt.Sprintf("planted edge %s -> %s not reported uncovered", pair[0], pair[1]))
	}

	rep.GraphNodes = ares.Graph.Len()
	rep.GraphEdges = ares.Graph.Edges()
	rep.CutWeight = ares.Cut.Cost.Seconds()
	rep.DefaultViolations = ares.DefaultViolations

	verr = ares.Graph.Validate()
	rep.check("graph-validates", verr == nil, fmt.Sprint(verr))

	// DefaultViolations must be reported exactly when the family plants an
	// infeasible default distribution.
	if a.PlantsInfeasibleDefault {
		rep.check("default-violations-reported", ares.DefaultViolations > 0,
			"family plants an infeasible default but analysis reported zero violations")
	} else {
		rep.check("default-violations-absent", ares.DefaultViolations == 0,
			fmt.Sprintf("family plants no infeasible default but analysis reported %d violations", ares.DefaultViolations))
	}

	if rep.RelaxedWeight, err = rep.checkCutAgainstFloorAndOracle(ares,
		"constrained-not-cheaper-than-relaxed", "cut-matches-edmonds-karp"); err != nil {
		return nil, fmt.Errorf("experiments: oracle cuts of %s: %w", a.App.Name, err)
	}

	// Incremental re-cut determinism: the arena-backed engine must be an
	// optimization, never a semantic. After any number of perturb-then-
	// restore rounds on one arena, a re-cut of the restored graph has to
	// reproduce the one-shot assignment byte for byte (both are side
	// vectors over the one graph's nodes, so equal assignments marshal
	// identically).
	oneShot, err := json.Marshal(ares.Cut.Assignment)
	if err != nil {
		return nil, fmt.Errorf("experiments: marshaling cut of %s: %w", a.App.Name, err)
	}
	arena := graph.NewCutArena()
	arng := rand.New(rand.NewSource(cfg.Seed ^ 0xa7e4a))
	edgeNames := ares.Graph.EdgeNames()
	arenaOK, arenaDetail := true, ""
	for round := 0; round < 3 && arenaOK; round++ {
		saved := make(map[[2]string]time.Duration)
		for _, e := range edgeNames {
			if arng.Intn(2) == 0 {
				w := ares.Graph.EdgeCost(e[0], e[1])
				saved[e] = w
				ares.Graph.SetEdgeCost(e[0], e[1], max(1, time.Duration(float64(w)*(0.5+arng.Float64()))))
			}
		}
		if _, cerr := ares.Graph.MinCutArena(ctx, arena); cerr != nil {
			return nil, fmt.Errorf("experiments: perturbed arena cut of %s: %w", a.App.Name, cerr)
		}
		for e, w := range saved {
			ares.Graph.SetEdgeCost(e[0], e[1], w)
		}
		cut, cerr := ares.Graph.MinCutArena(ctx, arena)
		if cerr != nil {
			return nil, fmt.Errorf("experiments: restored arena cut of %s: %w", a.App.Name, cerr)
		}
		b, jerr := json.Marshal(cut.Assignment)
		if jerr != nil {
			return nil, fmt.Errorf("experiments: marshaling arena cut of %s: %w", a.App.Name, jerr)
		}
		if !bytes.Equal(b, oneShot) {
			arenaOK = false
			arenaDetail = fmt.Sprintf("round %d: arena re-cut assignment diverged from the one-shot cut", round)
		}
	}
	rep.check("arena-recut-deterministic", arenaOK, arenaDetail)
	ast := arena.Stats()
	rep.check("arena-warm-start-used",
		ast.Restaged == 1 && ast.Warm > 0 && ast.Fallbacks == 0,
		fmt.Sprintf("weight-only rounds should warm-start on one staging: %+v", ast))

	// Purity: the static grading must exist, the verifier must never see a
	// mutation through a method claimed read-only, and replication — a
	// pure edge-removal transform — can never make the cut costlier.
	rep.check("purity-graded", ares.Purity != nil, "analysis produced no purity grading")
	misses, _ := tally(ares.Findings, purity.KindPurityMiss, analysis.KindReplicationRegression)
	rep.check("purity-verifier-clean", misses == 0,
		fmt.Sprintf("%d purity-miss/replication-regression finding(s): %v", misses, ares.Findings))
	if ares.ReplicatedCut != nil {
		rep.ReplicatedWeight = ares.ReplicatedCut.Cost.Seconds()
		rep.Replicated = len(ares.Replicated)
		rep.check("replicated-not-costlier",
			ares.ReplicatedCut.Cost <= ares.Cut.Cost,
			fmt.Sprintf("replicated cut %v > plain cut %v", ares.ReplicatedCut.Cost, ares.Cut.Cost))
	}

	// Families with purity plants: every classification of the planted
	// read-mostly class must grade read-mostly (none stateless — it has
	// state — and none stateful), every classification of the decoy must
	// grade stateful, and cloning the plant must strictly cheapen the cut.
	if a.ReadMostlyPlant != "" && ares.Purity != nil {
		rep.check("plant-read-mostly",
			classGraded(ares.Purity, a.ReadMostlyPlant, purity.GradeReadMostly),
			fmt.Sprintf("planted class %s not uniformly read-mostly: %s",
				a.ReadMostlyPlant, gradesOf(ares.Purity, a.ReadMostlyPlant)))
		rep.check("decoy-stateful",
			classGraded(ares.Purity, a.StatefulDecoy, purity.GradeStateful),
			fmt.Sprintf("decoy class %s not uniformly stateful: %s",
				a.StatefulDecoy, gradesOf(ares.Purity, a.StatefulDecoy)))
		if ares.ReplicatedCut != nil {
			rep.check("replication-strictly-cheaper",
				ares.ReplicatedCut.Cost < ares.Cut.Cost,
				fmt.Sprintf("replicated cut %v not strictly below plain cut %v",
					ares.ReplicatedCut.Cost, ares.Cut.Cost))
		}
	}

	// Uncovered (unpriced) edges were installed as conservative welds, so
	// both endpoints of every planted latent pair must land on the same
	// machine in the chosen distribution.
	for _, pair := range a.LatentPairs {
		ok, detail := classesCoLocated(ares.Distribution, prof, pair[0], pair[1])
		rep.check("uncovered-endpoints-co-located", ok, detail)
	}

	// Alias refinement stage: run the pipeline a second time with the
	// points-to analysis enabled and sweep the refinement's invariants —
	// the refined cut must stay sound (zero-miss verifier, no error
	// findings, never below the fully relaxed floor, Edmonds-Karp exact
	// on small graphs), the refined replication set must contain the
	// plain one, and the planted aliasing/decoy pairs must come out the
	// way the generator seeded them.
	spec.Alias = true
	runA, err := pipeline.Run(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: alias-refined pipeline run of %s: %w", a.App.Name, err)
	}
	adpsA, profA, aresA := runA.ADPS, runA.Profile, runA.Analysis
	rep.RefinedCutWeight = aresA.Cut.Cost.Seconds()
	refinedCS := adpsA.AnalysisOptions.Constraints
	rep.AliasPairs = len(refinedCS.AliasPairs)

	misses, _ = tally(aresA.Findings, alias.KindAliasMiss)
	errors := staticanal.ErrorCount(aresA.Findings)
	rep.check("alias-verifier-zero-miss", misses == 0,
		fmt.Sprintf("%d unpredicted non-remotable call(s): %v", misses, aresA.Findings))
	rep.check("alias-refined-no-errors", errors == 0,
		fmt.Sprintf("%d error finding(s) on the refined cut: %v", errors, aresA.Findings))

	if _, err := rep.checkCutAgainstFloorAndOracle(aresA,
		"alias-refined-not-cheaper-than-relaxed", "alias-cut-matches-edmonds-karp"); err != nil {
		return nil, fmt.Errorf("experiments: refined oracle cuts of %s: %w", a.App.Name, err)
	}

	// The alias-refined purity closure may only free components: the
	// refined replication set must contain every plain-eligible
	// classification, and on the three-tier family — whose stateless view
	// chain the plain closure wrongly drags into statefulness — it must
	// strictly grow.
	if ares.Purity != nil && aresA.Purity != nil {
		refEligible := make(map[string]bool, len(aresA.Purity.Replication.Classifications))
		for _, id := range aresA.Purity.Replication.Classifications {
			refEligible[id] = true
		}
		superset, lost := true, ""
		for _, id := range ares.Purity.Replication.Classifications {
			if !refEligible[id] {
				superset, lost = false, id
				break
			}
		}
		rep.check("alias-replication-superset", superset,
			fmt.Sprintf("refined replication set lost %s", lost))
		if cfg.Family == synthapp.ThreeTier {
			rep.check("alias-replication-strictly-grows",
				len(refEligible) > len(ares.Purity.Replication.Classifications),
				fmt.Sprintf("refined set %v no larger than plain %v",
					aresA.Purity.Replication.Classifications, ares.Purity.Replication.Classifications))
		}
	}

	// Pin-clique shrinkage: count the distinct profiled class pairs still
	// welded to one machine. The families planting aliasing decoys must
	// shrink strictly; everywhere else the counts are recorded for the
	// matrix artifact.
	rep.BaselineWelds = len(WeldedClassPairs(adps.AnalysisOptions.Constraints, prof))
	rep.RefinedWelds = len(WeldedClassPairs(refinedCS, profA))
	if cfg.Family == synthapp.SharedState || cfg.Family == synthapp.ThreeTier {
		rep.check("alias-welds-strictly-reduced", rep.RefinedWelds < rep.BaselineWelds,
			fmt.Sprintf("welded class pairs %d -> %d, want a strict reduction", rep.BaselineWelds, rep.RefinedWelds))
	}

	// Planted aliasing pairs must be proven shared-mutable; decoy pairs
	// exchange immutable payloads and must end up neither shared-mutable
	// nor welded by the refined constraints.
	ar := adpsA.Alias
	for _, pair := range a.AliasPlantPairs {
		_, shared := ar.SharedMutable(pair[0], pair[1])
		rep.check("alias-plant-shared-mutable", shared,
			fmt.Sprintf("planted pair %s/%s not proven to share mutable state", pair[0], pair[1]))
	}
	for _, pair := range a.AliasDecoyPairs {
		if _, shared := ar.SharedMutable(pair[0], pair[1]); shared {
			rep.check("alias-decoy-immutable", false,
				fmt.Sprintf("decoy pair %s/%s wrongly proven shared-mutable", pair[0], pair[1]))
			continue
		}
		_, weldAB := refinedCS.MustCoLocate(pair[0], pair[1])
		_, weldBA := refinedCS.MustCoLocate(pair[1], pair[0])
		rep.check("alias-decoy-immutable", !weldAB && !weldBA,
			fmt.Sprintf("decoy pair %s/%s still welded by the refined constraints", pair[0], pair[1]))
	}

	// The canonical shared-state report must be byte-stable: scanning the
	// same application twice encodes identically.
	var j1, j2 bytes.Buffer
	if err := ar.WriteJSON(&j1); err != nil {
		return nil, err
	}
	ar2, err := alias.Scan(binimg.BuildImage(a.App), a.App, adpsA.Reach)
	if err != nil {
		return nil, fmt.Errorf("experiments: alias re-scan of %s: %w", a.App.Name, err)
	}
	if err := ar2.WriteJSON(&j2); err != nil {
		return nil, err
	}
	rep.check("alias-json-byte-stable", bytes.Equal(j1.Bytes(), j2.Bytes()),
		"re-scanning produced different canonical bytes")

	// Trace one profiling run of the bigone through the session, write the
	// distribution into the binary, and hold the replay of that trace field
	// by field to the distributed run and to a chaos run (seeded faults and
	// retries): the replayer prices exactly what the runtime charges.
	_, traced, err := adps.ProfileScenario(a.Bigone, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: traced run of %s: %w", a.App.Name, err)
	}
	if err := adps.WriteDistribution(ares); err != nil {
		return nil, fmt.Errorf("experiments: writing distribution of %s: %w", a.App.Name, err)
	}
	dcfg, err := adps.RunConfig(dist.ModeCoign, a.Bigone)
	if err != nil {
		return nil, err
	}
	r1, err := dist.Run(dcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: distributed run of %s: %w", a.App.Name, err)
	}
	rep.checkReplay("replay-matches-run", dcfg, traced.Trace, r1)
	rep.check("replay-no-violations", r1.Violations == 0,
		fmt.Sprintf("chosen distribution crossed %d non-remotable boundaries", r1.Violations))

	dcfg.Faults = &dist.FaultPolicy{
		Drop:       0.01,
		Corrupt:    0.005,
		CallPolicy: dist.CallPolicy{MaxAttempts: 6, Timeout: 50 * time.Millisecond, Backoff: 5 * time.Millisecond},
	}
	chaos, err := dist.Run(dcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos run of %s: %w", a.App.Name, err)
	}
	rep.checkReplay("chaos-replay-matches-run", dcfg, traced.Trace, chaos)

	// Coign's map against every map: the exact-priced cut must replay at
	// the optimum; the product cut's distance from it is recorded.
	sw, err := SweepMaps(ctx, pipeline.Spec{App: spec.App, Scenarios: []string{a.Bigone}})
	switch err.(type) {
	case *TooManyGroupsError:
	case nil:
		rep.MapsSwept, rep.ProductGapNs = sw.Maps, sw.Coign-sw.Optimum
		rep.check("enumerated-optimum", sw.Exact == sw.Optimum,
			fmt.Sprintf("exact-priced cut replays at %v, the optimum of %d maps at %v", sw.Exact, sw.Maps, sw.Optimum))
	default:
		return nil, fmt.Errorf("experiments: map sweep of %s: %w", a.App.Name, err)
	}

	return rep, nil
}

// checkCutAgainstFloorAndOracle records two verdicts on an analysis's cut
// and returns the relaxed weight in seconds. Monotonicity: dropping the
// co-location welds can only cheapen the cut, so the constrained cost must
// be >= the relaxed cost. Exactness: on small instances the push-relabel
// cut must cost what the Edmonds-Karp oracle's does.
func (r *PipelineReport) checkCutAgainstFloorAndOracle(ares *analysis.Result, floorCheck, oracleCheck string) (float64, error) {
	relaxed, err := ares.Graph.WithoutCoLocations().MinCut()
	if err != nil {
		return 0, err
	}
	r.check(floorCheck,
		ares.Cut.Cost >= relaxed.Cost,
		fmt.Sprintf("constrained cut %v < relaxed cut %v", ares.Cut.Cost, relaxed.Cost))
	if ares.Graph.Len() <= 80 {
		ek, err := ares.Graph.MinCutEdmondsKarp()
		if err != nil {
			return 0, err
		}
		r.check(oracleCheck,
			ares.Cut.Cost == ek.Cost,
			fmt.Sprintf("push-relabel %v vs Edmonds-Karp %v", ares.Cut.Cost, ek.Cost))
	}
	return relaxed.Cost.Seconds(), nil
}

// classGraded reports whether at least one classification of the class
// was graded, and every one of them got the expected grade.
func classGraded(g *purity.Grading, class string, want purity.Grade) bool {
	n := 0
	for i := range g.Components {
		if g.Components[i].Class != class {
			continue
		}
		n++
		if g.Components[i].Grade != want {
			return false
		}
	}
	return n > 0
}

// gradesOf renders a class's per-classification grades for a check detail.
func gradesOf(g *purity.Grading, class string) string {
	out := ""
	for i := range g.Components {
		c := &g.Components[i]
		if c.Class != class {
			continue
		}
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%s=%s (%s)", c.Classification, c.Grade, c.Provenance)
	}
	if out == "" {
		return "no classifications graded"
	}
	return out
}

// classesCoLocated reports whether every classification of the two named
// classes landed on one machine in the distribution.
func classesCoLocated(distribution map[string]com.Machine, prof *profile.Profile, classA, classB string) (bool, string) {
	var machines []com.Machine
	var ids []string
	for _, ci := range prof.Classifications {
		if ci.Class != classA && ci.Class != classB {
			continue
		}
		m, ok := distribution[ci.ID]
		if !ok {
			return false, fmt.Sprintf("classification %s (class %s) missing from distribution", ci.ID, ci.Class)
		}
		machines = append(machines, m)
		ids = append(ids, ci.ID)
	}
	if len(machines) == 0 {
		return false, fmt.Sprintf("no classifications profiled for %s/%s", classA, classB)
	}
	for i := 1; i < len(machines); i++ {
		if machines[i] != machines[0] {
			return false, fmt.Sprintf("%s on %s but %s on %s", ids[0], machines[0], ids[i], machines[i])
		}
	}
	return true, ""
}

// checkReplay records whether replaying trace under cfg reproduces run,
// the execution of cfg, in every field a trace determines.
func (r *PipelineReport) checkReplay(name string, cfg dist.Config, trace *logger.Trace, run *dist.Result) {
	got, err := dist.Replay(cfg, trace)
	replayed := fmt.Sprint(err)
	if err == nil {
		replayed = pricedFields(got)
	}
	r.check(name, replayed == pricedFields(run), fmt.Sprintf("run %s, replay %s", pricedFields(run), replayed))
}

// pricedFields renders the fields of a result a trace determines, so a
// replay and the run it replays compare as one string.
func pricedFields(r *dist.Result) string {
	return fmt.Sprintf("{comm %v, %d msgs, %d B, %d violations, %d/%d instances %v/%v, "+
		"%d relocated, %d unknown, %d calls, faults %d/%d/%d/%d}",
		r.Clock.CommTime(), r.Clock.Messages(), r.Clock.Bytes(), r.Violations,
		r.Instances, r.AppInstances, r.PerMachine, r.AppPerMachine, r.Relocations, r.Unknown,
		r.TrappedCalls, r.Retries, r.FaultDrops, r.FaultCorruptions, r.FaultGiveUps)
}

// MatrixSummary aggregates a family × seed sweep of the property
// harness — the JSON artifact the CI pipeline-property job uploads.
type MatrixSummary struct {
	Families       []string          `json:"families"`
	SeedsPerFamily int               `json:"seedsPerFamily"`
	Runs           int               `json:"runs"`
	Failed         int               `json:"failed"`
	Reports        []*PipelineReport `json:"reports"`
}

// RunPipelineMatrix sweeps every generator family over seeds 0..seeds-1
// on the worker pool.
func RunPipelineMatrix(ctx context.Context, seeds int, scale int) (*MatrixSummary, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("experiments: matrix needs >= 1 seed per family, got %d", seeds)
	}
	var cfgs []synthapp.Config
	sum := &MatrixSummary{SeedsPerFamily: seeds}
	for _, fam := range synthapp.Families() {
		sum.Families = append(sum.Families, string(fam))
		for s := 0; s < seeds; s++ {
			cfgs = append(cfgs, synthapp.Config{Family: fam, Seed: int64(s), Scale: scale})
		}
	}
	reports, err := par.Map(ctx, cfgs, RunPipelineProperty)
	if err != nil {
		return nil, err
	}
	for _, r := range reports {
		sum.Runs++
		if r.Failed > 0 {
			sum.Failed++
		}
	}
	sum.Reports = reports
	return sum, nil
}
