package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/com"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/scenario"
)

// Three-machine partitioning. The paper restricts its exact algorithm to
// two-way client/server cuts and notes that partitioning across three or
// more machines is NP-hard, naming multiway heuristics as the path
// forward. This experiment carries the Benefits application all the way:
// the isolation-heuristic multiway cut assigns every classification to
// client, middle tier, or database server, and the resulting three-machine
// distribution is then actually executed on the simulator.

// ThreeTierResult reports the multiway experiment.
type ThreeTierResult struct {
	// PerMachine counts application components per machine.
	PerMachine map[com.Machine]int
	// CutWeight is the predicted cross-machine communication.
	CutWeight time.Duration
	// Comm is the measured communication time of the executed three-way
	// distribution; TwoWayComm the measured time of the exact two-way cut
	// on the same scenario for comparison.
	Comm       time.Duration
	TwoWayComm time.Duration
	Violations int
}

// ThreeTier partitions and executes the Benefits bigone scenario across
// three machines.
func ThreeTier(ctx context.Context) (*ThreeTierResult, error) {
	cfg, out, err := threeTierConfig(ctx)
	if err != nil {
		return nil, err
	}
	run, err := dist.Run(cfg)
	if err != nil {
		return nil, err
	}
	out.PerMachine, out.Comm, out.Violations = run.AppPerMachine, run.Clock.CommTime(), run.Violations
	return out, nil
}

// threeTierConfig cuts the Benefits bigone three ways and returns the
// execution of that cut, with the result's cut weight and two-way
// communication filled in.
func threeTierConfig(ctx context.Context) (cfg dist.Config, _ *ThreeTierResult, err error) {
	big, err := scenario.BigoneForApp("benefits")
	if err != nil {
		return cfg, nil, err
	}
	// Two-way comparison: the exact cut between client and a merged
	// middle+database side. Its profile also feeds the three-way cut.
	twoWay, err := pipeline.Run(ctx, pipeline.Spec{Scenarios: []string{big}, Compare: true})
	if err != nil {
		return cfg, nil, err
	}
	app, p := twoWay.ADPS.App, twoWay.Profile
	np := netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)

	// Terminals: the GUI-pinned front end belongs to the client, the
	// employee manager anchors the middle tier, and the database engine
	// anchors its server.
	g := graph.New()
	clientPins := []string{profile.MainProgram}
	var middlePins, dbPins []string
	g.Node(profile.MainProgram)
	for id, ci := range p.Classifications {
		g.Node(id)
		cl := app.Classes.LookupName(ci.Class)
		switch {
		case cl == nil:
		case cl.Infrastructure:
			dbPins = append(dbPins, id)
		case cl.Home == com.Client:
			clientPins = append(clientPins, id)
		case ci.Class == "EmployeeManager":
			middlePins = append(middlePins, id)
		}
	}
	for k, e := range p.Edges {
		g.AddEdge(k.Src, k.Dst, e.Time(np))
		if e.NonRemotable {
			g.CoLocate(k.Src, k.Dst)
		}
	}
	assign, weight, err := g.MultiwayCutCtx(ctx, []graph.MultiwayTerminal{
		{Machine: "client", Pinned: clientPins},
		{Machine: "middle", Pinned: middlePins},
		{Machine: "dbserver", Pinned: dbPins},
	})
	if err != nil {
		return cfg, nil, err
	}

	machineOf := map[string]com.Machine{
		"client":   com.Client,
		"middle":   com.Middle,
		"dbserver": com.Server,
	}
	distMap := make(map[string]com.Machine, len(assign))
	for id, m := range assign {
		if id == profile.MainProgram {
			continue
		}
		mm, ok := machineOf[m]
		if !ok {
			return cfg, nil, fmt.Errorf("experiments: multiway produced unknown machine %q", m)
		}
		distMap[id] = mm
	}

	if cfg, err = twoWay.ADPS.RunConfig(dist.ModeDefault, big); err != nil {
		return cfg, nil, err
	}
	cfg.Mode, cfg.Distribution = dist.ModeCoign, distMap
	return cfg, &ThreeTierResult{CutWeight: weight, TwoWayComm: twoWay.Experiment.CoignComm}, nil
}
