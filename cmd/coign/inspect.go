package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/scenario"
)

// The file trio — instrument, profile, analyze — is the paper's separate
// tool invocations handing an image and .icc logs from one to the next;
// it differs from cut only in where the profile comes from.

func cmdInstrument(_ context.Context, args []string, w io.Writer) error {
	fs := newFlags("instrument")
	appName := fs.String("app", "octarine", "application")
	out := fs.String("o", "", "output image path (default <app>.img)")
	classifier := fs.String("classifier", "ifcb", "instance classifier")
	depth := fs.Int("depth", 0, "classifier stack depth (0 = complete)")
	if err := fs.parse(args); err != nil {
		return err
	}
	adps, err := pipeline.Open(pipeline.Spec{App: *appName, Classifier: *classifier, Depth: *depth})
	if err != nil {
		return err
	}
	if err := adps.Instrument(); err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *appName + ".img"
	}
	if err := adps.Image.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote instrumented binary %s (%d bytes of code, %d imports, %s in slot 0)\n",
		path, adps.Image.CodeBytes(), len(adps.Image.Imports), adps.Image.Imports[0])
	return nil
}

// cmdProfile runs one or more profiling scenarios and writes each run's
// inter-component communication log to a .icc file, the paper's
// post-profiling artifact.
func cmdProfile(_ context.Context, args []string, w io.Writer) error {
	fs := newFlags("profile")
	scens := fs.String("scenarios", "o_oldwp0", "comma-separated scenarios (one application)")
	dir := fs.String("dir", ".", "directory for .icc log files")
	if err := fs.parse(args); err != nil {
		return err
	}
	names := strings.Split(*scens, ",")
	adps, err := pipeline.Open(pipeline.Spec{Scenarios: names})
	if err != nil {
		return err
	}
	if err := adps.Instrument(); err != nil {
		return err
	}
	for _, name := range names {
		info, err := scenario.Lookup(name)
		if err != nil {
			return err
		}
		if info.App != adps.App.Name {
			return fmt.Errorf("scenario %s belongs to %s, not %s", name, info.App, adps.App.Name)
		}
		p, _, err := adps.ProfileScenario(name, false)
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, name+".icc")
		if err := p.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s: %d calls, %d classifications\n",
			path, p.TotalCalls(), len(p.Classifications))
	}
	return nil
}

// cmdAnalyze combines profiling logs and prints, in cut's layout, the
// distribution the analysis engine chooses. Unlike cut, it consumes
// pre-recorded .icc files instead of profiling scenarios itself.
func cmdAnalyze(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlags("analyze")
	logs := fs.String("logs", "", "comma-separated .icc log files")
	network := fs.String("network", "10BaseT", "network model")
	verbose := fs.Bool("v", false, "list server-side classifications")
	if err := fs.parse(args); err != nil {
		return err
	}
	if *logs == "" {
		return fmt.Errorf("analyze requires -logs")
	}
	var combined *profile.Profile
	for _, path := range strings.Split(*logs, ",") {
		p, err := profile.ReadFile(path)
		if err != nil {
			return err
		}
		if combined == nil {
			combined = p
			continue
		}
		if err := combined.Merge(p); err != nil {
			return err
		}
	}
	// The logs say what was profiled and how: "ifcb", or "ifcb-d4" when the
	// stack walk was depth-limited.
	kind, depth, limited := strings.Cut(combined.Classifier, "-d")
	spec := pipeline.Spec{App: combined.App, Scenarios: combined.Scenarios, Network: *network, Classifier: kind}
	if limited {
		d, err := strconv.Atoi(depth)
		if err != nil {
			return fmt.Errorf("analyze: classifier %q: stack depth %q is not a number", combined.Classifier, depth)
		}
		spec.Depth = d
	}
	res, err := pipeline.Analyze(ctx, spec, combined)
	if err != nil {
		return err
	}
	if err := res.WriteText(w); err != nil {
		return err
	}
	if *verbose {
		res.WriteServerPlacements(w)
	}
	return nil
}
