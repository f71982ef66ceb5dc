// Command netprof is the Coign network profiler: it statistically samples
// communication time for a representative set of message sizes and prints
// the resulting network profile (the cost model the profile analysis
// engine combines with abstract ICC data).
//
// It profiles the parametric network models used by the simulator
// (-model), sampled exactly as a coign session with the same -seed and
// -samples samples them, so the table is the profile its cut prices with.
//
// Usage:
//
//	netprof -model 10BaseT [-samples 25] [-seed 1]
//	netprof -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/netsim"
)

func main() {
	model := flag.String("model", "10BaseT", "network model to profile")
	samples := flag.Int("samples", 25, "samples per message size")
	seed := flag.Int64("seed", 1, "session seed: print the profile a coign session with this seed prices with")
	list := flag.Bool("list", false, "list available network models")
	flag.Parse()

	if *list {
		models := netsim.Models()
		names := make([]string, 0, len(models))
		for name := range models {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Println(models[name])
		}
		return
	}

	m, err := netsim.ByName(*model)
	var p *netsim.Profile
	if err == nil {
		p, err = netsim.Sampled(m, *seed, *samples)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "netprof:", err)
		os.Exit(1)
	}
	fmt.Printf("%-10s %14s\n", "Bytes", "Message time")
	for _, pt := range p.Points {
		fmt.Printf("%-10d %14v\n", pt.Size, pt.Time)
	}
	fmt.Printf("\ninterpolated: 100B=%v  10KB=%v  1MB=%v\n",
		p.MessageTime(100), p.MessageTime(10<<10), p.MessageTime(1<<20))
}
