package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// TestCommandOutputGolden runs the commands that get their session from
// internal/pipeline in-process and holds what they print, and the files
// they write, to what the tree printed and wrote before they did (golden
// text and digests captured at commit 567a3e1). DIR stands for the test's
// temporary directory. analyze prints in cut's layout, so its golden text
// is `coign cut -scenario o_newdoc,o_oldtb3 -v` at that commit; for the
// anonymous log the instance, time and server lines are that commit's
// `analyze -v` numbers. The chaos text is what it printed once the virtual
// clock retried whole round trips, as the real transport does. What the
// exhibits of EXPERIMENTS.md print is held there, by
// TestExperimentsAreCommandOutput.
func TestCommandOutputGolden(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// A log from elsewhere: profiled under another classifier, and naming
	// no scenario. analyze takes it and reports what the log says.
	adps, err := pipeline.Open(pipeline.Spec{App: "octarine", Classifier: "st"})
	if err != nil {
		t.Fatal(err)
	}
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	anon, _, err := adps.ProfileScenario("o_oldwp0", false)
	if err != nil {
		t.Fatal(err)
	}
	anon.Scenarios = nil
	if err := anon.WriteFile(filepath.Join(dir, "anon.icc")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		run   func(context.Context, []string, io.Writer) error
		args  []string
		want  string
		files map[string]string // file under DIR -> sha256
	}{
		{name: "profile", run: cmdProfile, args: []string{"-scenarios", "o_newdoc,o_oldtb3", "-dir", "DIR"},
			want: `wrote DIR/o_newdoc.icc: 1086 calls, 245 classifications
wrote DIR/o_oldtb3.icc: 1809 calls, 237 classifications
`,
			files: map[string]string{
				"o_newdoc.icc": "ea5e2531c100587788ac287b3a084cb1899b2e3d1c32577ab1a7b1fbe8a2d7ed",
				"o_oldtb3.icc": "7aa2fb084248e5e55106fee136b684f472e49b02d95ff22d19b92d82f2d67981",
			}},
		{name: "analyze", run: cmdAnalyze, args: []string{"-logs", "DIR/o_newdoc.icc,DIR/o_oldtb3.icc", "-v"},
			want: `o_newdoc+o_oldtb3 on 10BaseT (ifcb classifier)
  classifications: 249 client, 3 server (231 constrained, 233 non-remotable edges)
  instances:       881 client, 3 server
  predicted comm:  1.101459793s (default 14.564148304s, savings 92%)
  server: DocReader            x1
  server: FileStore            x1
  server: FileStore            x1
`},
		{name: "analyze anonymous st log", run: cmdAnalyze, args: []string{"-logs", "DIR/anon.icc", "-v"},
			want: `octarine on 10BaseT (st classifier)
  classifications: 89 client, 1 server (79 constrained, 77 non-remotable edges)
  instances:       458 client, 1 server
  predicted comm:  481.133962ms (default 481.133962ms, savings 0%)
  server: FileStore            x1
`},
		{name: "instrument", run: cmdInstrument, args: []string{"-o", "DIR/oct.img"},
			want:  "wrote instrumented binary DIR/oct.img (1127253 bytes of code, 6 imports, coign.rt in slot 0)\n",
			files: map[string]string{"oct.img": "79c1f11daa3ba7225c00e80b051df20d9329fad7d26af50c10aaac53289c0798"}},
		{name: "instrument synth", run: cmdInstrument,
			args:  []string{"-app", "synth:three-tier:1", "-classifier", "pcb", "-depth", "3", "-o", "DIR/tt.img"},
			want:  "wrote instrumented binary DIR/tt.img (1211454 bytes of code, 3 imports, coign.rt in slot 0)\n",
			files: map[string]string{"tt.img": "40d7ed3128b0564fdf7438bfc4fc9e03d6b1cc8afb1ca9975669c4a9c94e9932"}},
		{name: "chaos", run: cmdChaos, args: []string{"-drop", "0.05", "-seed", "7"},
			want: `o_oldwp7 on 10BaseT (drop 5.0%, corrupt 5.0%, 4 attempt(s), seed 7)
  outcome: FAILED — dist: scenario o_oldwp7: 1 call(s) undeliverable after 4 attempt(s): dist: call timed out
  faults:    52 drops, 50 corruptions, 101 retries, 1 giveups
`},
		{name: "chaos from model", run: cmdChaos, args: []string{"-from-model", "-network", "ISDN", "-seed", "7"},
			want: `o_oldwp7 on ISDN (drop 0.5%, corrupt 0.1%, 4 attempt(s), seed 7)
  outcome:   completed (504 components, 838 messages, 19224535 bytes)
  comm time: 21m35.239066249s (compute 27.03355s)
  faults:    2 drops, 0 corruptions, 2 retries, 0 giveups
`},
	} {
		args := make([]string, len(tc.args))
		for i, a := range tc.args {
			args[i] = strings.ReplaceAll(a, "DIR", dir)
		}
		var out bytes.Buffer
		if err := tc.run(context.Background(), args, &out); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := strings.ReplaceAll(out.String(), dir, "DIR"); got != tc.want {
			t.Errorf("%s printed:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
		for file, want := range tc.files {
			b, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			} else if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
				t.Errorf("%s wrote %s with sha256 %s, want %s", tc.name, file, got, want)
			}
		}
	}

	for _, bad := range []struct {
		run  func(context.Context, []string, io.Writer) error
		args []string
	}{
		{cmdAnalyze, nil}, // no -logs
		{cmdAnalyze, []string{"-logs", filepath.Join(dir, "o_newdoc.icc"), "-network", "carrier-pigeon"}},
		{cmdProfile, []string{"-scenarios", "o_newdoc,p_newdoc", "-dir", dir}}, // two applications
		{cmdDrift, []string{"-observed", "p_newdoc"}},                          // two applications
		{cmdInstrument, []string{"-app", "solitaire", "-o", filepath.Join(dir, "x.img")}},
		{cmdInstrument, []string{"-classifier", "nope", "-o", filepath.Join(dir, "x.img")}},
	} {
		if err := bad.run(context.Background(), bad.args, io.Discard); err == nil {
			t.Errorf("%v: accepted", bad.args)
		}
	}
}

// TestProfileLogsPinned holds the .icc log of each paper application's
// bigone scenario, written by `coign profile`, and of quickstart's default
// run to the bytes the tree wrote before the profile became a fold over
// the runtime's event records (digests captured at commit c8d0f24).
func TestProfileLogsPinned(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	want := map[string]string{
		"o_bigone.icc":   "aacdaa9f2c6616260f114f245de1c5bb378e2fd0f0ea757f58594c9982e07f06",
		"p_bigone.icc":   "4c13f8d55a6affc1884cc33e2db2ad8a56bc4e176c0e49f7fac622969ddaedc2",
		"b_bigone.icc":   "d2888789f7467da39387b62ee4c3f428434bb9434a92c752bebca96d4ff96bb4",
		"quickstart.icc": "3a533c3706f602168985d46196a2f7fc0451cae44879bb6c1f043cd696679933",
	}
	for _, scen := range []string{"o_bigone", "p_bigone", "b_bigone"} {
		if err := cmdProfile(context.Background(), []string{"-scenarios", scen, "-dir", dir}, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	adps, err := pipeline.Open(pipeline.Spec{App: "quickstart"})
	if err != nil {
		t.Fatal(err)
	}
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	p, _, err := adps.ProfileScenario("default", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile(filepath.Join(dir, "quickstart.icc")); err != nil {
		t.Fatal(err)
	}
	for file, sum := range want {
		b, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != sum {
			t.Errorf("%s has sha256 %s, want %s", file, got, sum)
		}
	}
}

// TestAnalyzeClassifierDepth: analyze reads the stack-walk depth from the
// log's classifier name, "ifcb" or "ifcb-d<n>", and refuses a log whose
// depth suffix is not a number rather than analysing it as the complete
// walk.
func TestAnalyzeClassifierDepth(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	adps, err := pipeline.Open(pipeline.Spec{App: "octarine", Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := adps.Instrument(); err != nil {
		t.Fatal(err)
	}
	p, _, err := adps.ProfileScenario("o_newtbl", false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Classifier != "ifcb-d4" {
		t.Fatalf("profiled under %q, want ifcb-d4", p.Classifier)
	}
	for _, c := range []struct {
		classifier, header string // header "" means refused
	}{
		{"ifcb-d4", "o_newtbl on 10BaseT (ifcb classifier)\n"},
		{"ifcb", "o_newtbl on 10BaseT (ifcb classifier)\n"},
		{"ifcb-dX", ""},
		{"ifcb-d", ""},
		{"ifcb-d4x", ""},
	} {
		p.Classifier = c.classifier
		path := filepath.Join(dir, c.classifier+".icc")
		if err := p.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := cmdAnalyze(context.Background(), []string{"-logs", path}, &out)
		switch {
		case c.header == "" && err == nil:
			t.Errorf("%s: analysed:\n%s", c.classifier, out.String())
		case c.header != "" && err != nil:
			t.Errorf("%s: %v", c.classifier, err)
		case c.header != "" && !strings.HasPrefix(out.String(), c.header):
			t.Errorf("%s: printed\n%s\nwant it to start %q", c.classifier, out.String(), c.header)
		}
	}
}
