package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
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
// clock retried whole round trips. The .icc
// digests are of that commit's logs with their "instances" member
// removed, since a profile holds no per-instance detail. The .img digests
// are of that commit's images with the configuration record's interface
// format strings and network name removed, since the record holds only
// what the runtime reads. What the
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
				"o_newdoc.icc": "b624907908af855622b9755368c9684344ca740decc2ec849483154a900f4013",
				"o_oldtb3.icc": "74f6a5acfb30870a9ef2bc58c5b5e6a00d98e9c515d71643951fe2bb13b2d915",
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
			files: map[string]string{"oct.img": "e7603ec971f799107ef5df24d6956d111340c053d5761b3d693a17bf97d99ca3"}},
		{name: "instrument synth", run: cmdInstrument,
			args:  []string{"-app", "synth:three-tier:1", "-classifier", "pcb", "-depth", "3", "-o", "DIR/tt.img"},
			want:  "wrote instrumented binary DIR/tt.img (1211454 bytes of code, 3 imports, coign.rt in slot 0)\n",
			files: map[string]string{"tt.img": "5001ea6a31ada9e92e09e4226a944bda1a25c9d15ae85902b57b6ad251aaaeae"}},
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
// the runtime's event records (captured at commit c8d0f24), less their
// "instances" member: a profile holds no per-instance detail.
func TestProfileLogsPinned(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	want := map[string]string{
		"o_bigone.icc":   "04a1e1c6d50b5b08b1c6ba61057285e1d2a45abbcb97b27cbc0659da6b5eca8f",
		"p_bigone.icc":   "d7e2571a724ddfdd42393153a468160add02c6b4118cde816a10d8ab7de2d782",
		"b_bigone.icc":   "185e37689964402fc18ef7cf19f26436293c64213315692ed6140b9b6bd819fd",
		"quickstart.icc": "bac02ab1d16257063e9d70f82ff86cb68cb899874a13808cc1f462ca8ecce2e5",
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

// TestCommandsRefuseBadArguments: every command, flagless ones too,
// refuses an unknown flag and a positional argument before any work
// starts: it prints nothing and returns a usageError, which main turns
// into exit code 2. The context is cancelled, so a command that started
// anyway stops soon.
func TestCommandsRefuseBadArguments(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range commands {
		for _, args := range [][]string{{"-bogus"}, {"stray"}} {
			var out bytes.Buffer
			err := c.run(ctx, args, &out)
			var bad usageError
			if !errors.As(err, &bad) || out.Len() > 0 {
				t.Errorf("coign %s %s: error %v after printing %d bytes, want a usage error and nothing printed",
					c.name, args[0], err, out.Len())
			}
		}
	}
}
