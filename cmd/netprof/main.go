// Command netprof is the Coign network profiler: it statistically samples
// communication time for a representative set of message sizes and prints
// the resulting network profile (the cost model the profile analysis
// engine combines with abstract ICC data).
//
// Two sources are supported: the parametric network models used by the
// simulator (-model), sampled exactly as a coign session with the same
// -seed and -samples samples them, so the table is the profile its cut
// prices with; and a real loopback-TCP transport (-tcp) in which
// every sample is an actual framed round trip through the DCOM-analog
// wire protocol.
//
// Usage:
//
//	netprof -model 10BaseT [-samples 25] [-seed 1]
//	netprof -tcp [-samples 25]
//	netprof -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/netsim"
)

func main() {
	model := flag.String("model", "10BaseT", "network model to profile")
	useTCP := flag.Bool("tcp", false, "profile a real loopback-TCP transport instead of a model")
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

	var p *netsim.Profile
	var err error
	if *useTCP {
		p, err = profileTCP(*samples)
	} else {
		var m *netsim.Model
		m, err = netsim.ByName(*model)
		if err == nil {
			p, err = netsim.Sampled(m, *seed, *samples)
		}
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

// profileTCP measures real round trips through the loopback transport.
func profileTCP(samples int) (*netsim.Profile, error) {
	srv, err := dist.Serve("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	conn, err := dist.Dial(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	measure := func(size int) time.Duration {
		d, err := conn.Ping(size)
		if err != nil {
			return 0
		}
		// One-way approximation: half the round trip.
		return d / 2
	}
	return netsim.Sample("loopback-tcp", measure, netsim.DefaultSampleSizes, samples)
}
