package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/binimg"
	"repro/internal/experiments"
	"repro/internal/synthapp"
)

// cmdSynth drives the synthetic-application generator: list the families,
// emit one generated application (optionally as a binary image), or sweep
// the full-pipeline property harness over the whole seed matrix — the
// mode the CI pipeline-property job runs.
func cmdSynth(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlags("synth")
	list := fs.Bool("list", false, "list the generator families and exit")
	family := fs.String("family", string(synthapp.ThreeTier), "generator family")
	seed := fs.Int64("seed", 0, "generator seed")
	scale := fs.Int("scale", 1, fmt.Sprintf("size multiplier (1..%d)", synthapp.MaxScale))
	out := fs.String("o", "", "write the generated application's binary image to this path")
	harness := fs.Bool("harness", false, "run the full-pipeline property harness over every family")
	seeds := fs.Int("seeds", 20, "harness: seeds per family")
	jsonOut := fs.Bool("json", false, "harness: emit the matrix summary as JSON on stdout")
	if err := fs.parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintf(w, "%-15s %-24s %s\n", "Family", "Training", "Bigone")
		for _, fam := range synthapp.Families() {
			sa, err := synthapp.Generate(synthapp.Config{Family: fam})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-15s %-24s %s\n", fam, strings.Join(sa.Training, ","), sa.Bigone)
		}
		return nil
	}
	if *harness {
		sum, err := experiments.RunPipelineMatrix(ctx, *seeds, *scale)
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(sum); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(w, "pipeline property matrix: %d families x %d seeds = %d runs, %d failed\n",
				len(sum.Families), sum.SeedsPerFamily, sum.Runs, sum.Failed)
			for _, rep := range sum.Reports {
				for _, c := range rep.Checks {
					if !c.OK {
						fmt.Fprintf(w, "  FAIL %s seed %d: %s: %s\n", rep.Family, rep.Seed, c.Name, c.Detail)
					}
				}
			}
		}
		if sum.Failed > 0 {
			return fmt.Errorf("%d of %d pipeline property runs failed", sum.Failed, sum.Runs)
		}
		return nil
	}

	sa, err := synthapp.Generate(synthapp.Config{
		Family: synthapp.Family(*family), Seed: *seed, Scale: *scale,
	})
	if err != nil {
		return err
	}
	if err := synthapp.Validate(sa.App); err != nil {
		return err
	}
	img := binimg.BuildImage(sa.App)
	var buf bytes.Buffer
	if err := img.Encode(&buf); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d classes, %d interfaces, training %s, bigone %s\n",
		sa.App.Name, sa.App.Classes.Len(), len(sa.App.Interfaces.IIDs()),
		strings.Join(sa.Training, ","), sa.Bigone)
	fmt.Fprintf(w, "image: %d bytes, sha256 %x\n", buf.Len(), sha256.Sum256(buf.Bytes()))
	if sa.PlantsInfeasibleDefault {
		fmt.Fprintln(w, "plants: infeasible default distribution (expect DefaultViolations > 0)")
	}
	for _, pair := range sa.LatentPairs {
		fmt.Fprintf(w, "plants: latent activation %s -> %s (uncovered by training scenarios)\n",
			pair[0], pair[1])
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("writing image: %w", err)
		}
		fmt.Fprintf(w, "wrote %s\n", *out)
	}
	return nil
}
