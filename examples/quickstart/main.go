// Quickstart: build a small component application against the synthetic
// COM substrate, then run the complete Coign pipeline on it — rewrite the
// binary, profile a scenario, analyze, and execute the chosen distribution
// — all without the application knowing.
//
//	go run ./examples/quickstart
//
// The application itself (a GUI viewer, a cruncher, and a server-side
// data store) lives in internal/apps/quickstart so the coverage gate and
// tests can drive the same binary.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/apps/quickstart"
	"repro/internal/com"
	"repro/internal/core"
)

func main() {
	app := quickstart.New()
	adps := core.New(app)

	// 1. The binary rewriter inserts the Coign runtime and a profiling
	//    configuration record.
	if err := adps.Instrument(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instrumented binary: import[0]=%s\n", adps.Image.Imports[0])

	// 2. Scenario-based profiling measures inter-component communication.
	p, _, err := adps.ProfileScenario("default", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %d calls across %d classifications\n",
		p.TotalCalls(), len(p.Classifications))

	// 2b. The reachability coverage diff shows what the scenario missed
	//     (run `go run ./cmd/coign report -app quickstart -only coverage`
	//     for the full report).
	cov := adps.Reach.Coverage(p)
	fmt.Printf("activation coverage: %.0f%% (%d uncovered edges)\n",
		cov.Percent(), len(cov.UncoveredEdges()))

	// 3. The analysis engine cuts the concrete graph.
	res, err := adps.Analyze(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	for _, cp := range res.ServerComponents(p) {
		fmt.Printf("server-side component: %s\n", cp.Class)
	}
	fmt.Printf("predicted communication: %v (default %v, savings %.0f%%)\n",
		res.PredictedComm, res.DefaultComm, res.Savings()*100)

	// 4. The rewriter records the distribution; the lightweight runtime
	//    realizes it on the next execution.
	if err := adps.WriteDistribution(res); err != nil {
		log.Fatal(err)
	}
	coign, err := adps.RunDistributed("default", false)
	if err != nil {
		log.Fatal(err)
	}
	def, err := adps.RunDefault("default", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured communication: default %v, Coign %v\n",
		def.Clock.CommTime(), coign.Clock.CommTime())
	fmt.Printf("instances on server: %d of %d\n",
		coign.AppPerMachine[com.Server], coign.AppInstances)
}
