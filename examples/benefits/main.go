// Benefits 3-tier re-partitioning: reproduces the paper's most surprising
// result (Figure 6). An experienced client/server programmer put the whole
// business layer on the middle tier; Coign discovers that many of those
// components are caches serving the client field-by-field, moves them to
// the client, and cuts communication by roughly a third — without touching
// the business logic, whose database traffic pins it to the data.
//
//	go run ./examples/benefits
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/apps/benefits"
	"repro/internal/core"
)

func main() {
	adps := core.New(benefits.New())
	rep, err := adps.ScenarioExperiment(context.Background(), benefits.ScenBigone)
	if err != nil {
		log.Fatal(err)
	}

	defaultMiddle := rep.TotalInstances - 9 // nine front-end components
	fmt.Printf("components in client + middle tier: %d\n", rep.TotalInstances)
	fmt.Printf("  programmer's middle tier: %d components\n", defaultMiddle)
	fmt.Printf("  Coign's middle tier:      %d components\n", rep.ServerInstances)
	fmt.Printf("  moved to the client:      %d (the caches)\n",
		defaultMiddle-rep.ServerInstances)
	fmt.Printf("communication: default %.3fs, Coign %.3fs (%.0f%% less)\n",
		rep.DefaultComm.Seconds(), rep.CoignComm.Seconds(), rep.Savings*100)

	// Which classes moved, which stayed?
	if err := adps.Instrument(); err != nil {
		log.Fatal(err)
	}
	p, _, err := adps.ProfileScenario(benefits.ScenBigone, false)
	if err != nil {
		log.Fatal(err)
	}
	res, err := adps.Analyze(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	middle := map[string]int64{}
	client := map[string]int64{}
	for _, ci := range p.Classifications {
		m := res.Distribution[ci.ID]
		if m == 1 { // com.Server: the middle tier
			middle[ci.Class] += ci.Instances
		} else {
			client[ci.Class] += ci.Instances
		}
	}
	fmt.Println("\nstays on the middle tier (business logic):")
	printByClass(middle)
	fmt.Println("moves to the client (front end + caches):")
	printByClass(client)
}

// printByClass prints class instance counts in sorted class order, so
// repeated runs produce identical output.
func printByClass(counts map[string]int64) {
	classes := make([]string, 0, len(counts))
	for class := range counts {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		fmt.Printf("  %-18s x%d\n", class, counts[class])
	}
}
