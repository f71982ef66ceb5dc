package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/pipeline"
)

// parsePins turns the CLI's 'Class=client,Class2=server' syntax into the
// pipeline's pin map. Machine validation happens in Spec.Normalized.
func parsePins(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	pins := map[string]string{}
	for _, entry := range strings.Split(s, ",") {
		parts := strings.SplitN(entry, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -pin entry %q (want Class=client|server)", entry)
		}
		pins[parts[0]] = parts[1]
	}
	return pins, nil
}

// cmdCut profiles one or more scenarios and prints (or emits as JSON) the
// distribution the analysis engine chooses. It is a thin veneer over
// pipeline.Run: the same spec submitted to the job service yields exactly
// the bytes -json prints here.
func cmdCut(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlags("cut")
	appName := fs.String("app", "", "application name (default: inferred from the first scenario; required for synth:... apps)")
	scens := fs.String("scenario", "o_oldwp7", "comma-separated scenarios to partition (one application)")
	network := fs.String("network", "10BaseT", "network model")
	classifier := fs.String("classifier", "ifcb", "instance classifier")
	depth := fs.Int("depth", 0, "classifier stack depth (0 = complete)")
	verbose := fs.Bool("v", false, "list server-side classifications")
	dotPath := fs.String("dot", "", "write the distribution figure as Graphviz DOT")
	pins := fs.String("pin", "", "programmer constraints, e.g. 'TextProps=client,DocReader=server'")
	coverage := fs.Bool("coverage", false, "weld statically reachable but unprofiled edges before cutting")
	replicate := fs.Bool("replicate", false, "also cut the replication-aware network")
	theta := fs.Float64("theta", 0, "read-mostly purity threshold (0 = default)")
	exact := fs.Bool("exact", false, "price edges from exact byte totals instead of buckets")
	jsonOut := fs.Bool("json", false, "emit the result as canonical JSON on stdout")
	if err := fs.parse(args); err != nil {
		return err
	}
	pinMap, err := parsePins(*pins)
	if err != nil {
		return err
	}
	spec := pipeline.Spec{
		App:          *appName,
		Scenarios:    strings.Split(*scens, ","),
		Network:      *network,
		Classifier:   *classifier,
		Depth:        *depth,
		Pins:         pinMap,
		Coverage:     *coverage,
		Replicate:    *replicate,
		Theta:        *theta,
		ExactPricing: *exact,
	}
	res, err := pipeline.Run(ctx, spec)
	if err != nil {
		return err
	}
	if *jsonOut {
		return pipeline.EncodeJSON(w, res)
	}
	if err := res.WriteText(w); err != nil {
		return err
	}
	if *verbose {
		res.WriteServerPlacements(w)
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		title := strings.Join(res.Spec.Scenarios, "+") + " on " + res.Spec.Network
		if err := res.Analysis.WriteDOT(f, res.Profile, title); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s (render with: neato -Tsvg %s)\n", *dotPath, *dotPath)
	}
	return nil
}

// cmdRun runs the full end-to-end experiment for one scenario — write the
// distribution into the binary, execute default and Coign placements,
// measure — via the pipeline's compare mode.
func cmdRun(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlags("run")
	scen := fs.String("scenario", "o_oldwp7", "scenario to run")
	jsonOut := fs.Bool("json", false, "emit the result as canonical JSON on stdout")
	if err := fs.parse(args); err != nil {
		return err
	}
	res, err := pipeline.Run(ctx, pipeline.Spec{Scenarios: []string{*scen}, Compare: true})
	if err != nil {
		return err
	}
	if *jsonOut {
		return pipeline.EncodeJSON(w, res)
	}
	return res.WriteText(w)
}
