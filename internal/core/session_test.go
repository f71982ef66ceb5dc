package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/apps/quickstart"
	"repro/internal/com"
	"repro/internal/scenario"
)

// TestFailedScanFailsTheSession: a static scan that errors must surface
// from every step that would otherwise cut with fewer constraints, named
// after the application and the scan that failed.
func TestFailedScanFailsTheSession(t *testing.T) {
	t.Parallel()
	ghost := quickstart.New()
	c := ghost.Classes.Classes()[0]
	c.Interfaces = append(c.Interfaces, "IGhost")
	noRegistry := quickstart.New()
	noRegistry.Interfaces = nil

	for _, tc := range []struct {
		name, scan string
		app        *com.App
	}{
		{"class lists an unregistered interface", "purity scan", ghost},
		{"nil interface registry", "reachability scan", noRegistry},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a := New(tc.app)
			if a.Err() == nil {
				t.Fatal("session opened without an error")
			}
			_, analyzeErr := a.Analyze(context.Background(), nil)
			for step, err := range map[string]error{
				"Err":         a.Err(),
				"Instrument":  a.Instrument(),
				"EnableAlias": a.EnableAlias(),
				"Analyze":     analyzeErr,
			} {
				if err == nil {
					t.Errorf("%s succeeded on a session whose %s failed", step, tc.scan)
					continue
				}
				for _, want := range []string{tc.app.Name, tc.scan} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s error %q does not name %q", step, err, want)
					}
				}
			}
			if a.Image.Instrumented() {
				t.Error("binary instrumented despite the failed scan")
			}
		})
	}
}

// TestEnableAliasReadsTheSessionImage: the alias refinement scans the
// session's image in whatever pipeline state it is, so enabling it after
// the rewriter ran gives the same reports as enabling it before.
func TestEnableAliasReadsTheSessionImage(t *testing.T) {
	t.Parallel()
	reports := func(instrumentFirst bool) []byte {
		app, err := scenario.NewApp("synth:shared-state:1")
		if err != nil {
			t.Fatal(err)
		}
		a := New(app)
		if instrumentFirst {
			if err := a.Instrument(); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.EnableAlias(); err != nil {
			t.Fatal(err)
		}
		if len(a.Alias.MutablePairs()) == 0 {
			t.Fatal("shared-state app scanned without its planted aliasing pair")
		}
		var buf bytes.Buffer
		if err := a.Alias.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{a.Purity, a.AnalysisOptions.Purity, a.AnalysisOptions.Constraints} {
			if err := json.NewEncoder(&buf).Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if before, after := reports(false), reports(true); !bytes.Equal(before, after) {
		t.Errorf("reports differ:\nalias enabled first:\n%s\ninstrumented first:\n%s", before, after)
	}
}
