package graph_test

import (
	"fmt"

	"repro/internal/graph"
)

// A document reader pulls far more from storage than it reports to the
// GUI, so the minimum cut moves it to the server with the data.
func ExampleGraph_MinCut() {
	g := graph.New()
	g.Pin("gui", graph.SourceSide)    // GUI constrained to the client
	g.Pin("storage", graph.SinkSide)  // data constrained to the server
	g.AddEdge("gui", "reader", 0.2)   // small rendered output
	g.AddEdge("reader", "storage", 5) // bulk document reads
	g.AddEdge("gui", "toolbar", 0.5)  // local chatter

	cut, err := g.MinCut()
	if err != nil {
		panic(err)
	}
	fmt.Printf("reader on side %d, cut weight %.1f\n",
		cut.Assignment[g.Node("reader")], cut.Weight)
	// Output:
	// reader on side 1, cut weight 0.2
}

// Non-remotable interfaces force co-location: the sprite cache follows the
// GUI to the client even though it talks to the reader.
func ExampleGraph_CoLocate() {
	g := graph.New()
	g.Pin("gui", graph.SourceSide)
	g.Pin("storage", graph.SinkSide)
	g.AddEdge("reader", "storage", 5)
	g.AddEdge("sprite", "reader", 3)
	g.CoLocate("sprite", "gui") // shared-memory interface

	cut, _ := g.MinCut()
	fmt.Printf("sprite side=%d reader side=%d\n",
		cut.Assignment[g.Node("sprite")], cut.Assignment[g.Node("reader")])
	// Output:
	// sprite side=0 reader side=1
}

// The multiway extension partitions across three machines with the
// isolation heuristic.
func ExampleGraph_MultiwayCut() {
	g := graph.New()
	g.AddEdge("form", "cache", 2)
	g.AddEdge("cache", "logic", 0.5)
	g.AddEdge("logic", "db", 4)
	assign, weight, err := g.MultiwayCut([]graph.MultiwayTerminal{
		{Machine: "client", Pinned: []string{"form"}},
		{Machine: "middle", Pinned: []string{"logic"}},
		{Machine: "dbserver", Pinned: []string{"db"}},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cache on %s, crossing weight %.1f\n", assign["cache"], weight)
	// Output:
	// cache on client, crossing weight 4.5
}
