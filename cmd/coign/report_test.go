package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestReportCommandGate drives `coign report` the way CI does: the
// quick-start coverage gate passes at 70% and fails, naming the app, at
// 80%; a misspelt condition or section is rejected before any profiling;
// and the four commands it replaced are gone from the command table.
func TestReportCommandGate(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	run := func(args ...string) error {
		out.Reset()
		return cmdReport(context.Background(), args, &out)
	}
	if err := run("-app", "quickstart", "-only", "coverage", "-fail-under", "70"); err != nil {
		t.Errorf("quickstart coverage gate at 70%%: %v", err)
	}
	if err := run("-app", "quickstart", "-only", "coverage", "-fail-under", "80"); err == nil ||
		!strings.Contains(err.Error(), "quickstart: coverage 75.0% below 80.0%") {
		t.Errorf("quickstart coverage gate at 80%% = %v, want a failure naming the app", err)
	}
	if err := run("-app", "quickstart", "-json", "-only", "check,alias", "-fail-on", "violation,misclassified,miss"); err != nil {
		t.Errorf("clean quickstart report fails the gate: %v", err)
	}
	var doc []map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil || len(doc) != 1 ||
		doc[0]["check"] == nil || doc[0]["alias"] == nil || doc[0]["coverage"] != nil || doc[0]["purity"] != nil {
		t.Errorf("-json -only check,alias: %v, sections %v", err, doc)
	}
	for _, bad := range [][]string{
		{"-fail-on", "violation,typo"},
		{"-only", "check,typo"},
		{"-scenarios", "default"}, // a scenario override needs one -app
	} {
		if err := run(bad...); err == nil {
			t.Errorf("coign report %v: accepted", bad)
		}
	}

	have := make(map[string]bool)
	for _, c := range commands {
		have[c.name] = true
	}
	for _, gone := range []string{"check", "coverage", "purity", "alias"} {
		if have[gone] {
			t.Errorf("command %q still registered beside report", gone)
		}
	}
	if !have["report"] {
		t.Error("report command not registered")
	}
}
