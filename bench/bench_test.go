package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// mayBeZero lists the per-layer metrics that are 0 on a healthy toy run of
// the workload that owns them: counters of rare events, and costs below the
// clock's resolution.
var mayBeZero = map[string]bool{
	"graph.arena_restaged":            true,
	"graph.arena_fallbacks":           true,
	"graph.warm_unchanged_fallbacks":  true,
	"graph.warm_fallback_share":       true,
	"graph.scale_warm_fallback_share": true,
	"harness.gc_cycles_per_op":        true,
	"harness.gc_pause_ms_per_op":      true,
	"harness.trace_overhead_pct":      true,
}

// TestWorkloadsToySize runs every workload at toy size, untraced and traced,
// and holds the output to the metric tables: every name printed exactly once
// with its unit, every end-to-end value above zero, no failed op, and every
// per-layer metric produced by at least one workload.
func TestWorkloadsToySize(t *testing.T) {
	var mu sync.Mutex
	produced := map[string]bool{}
	t.Run("workloads", func(t *testing.T) {
		for _, wl := range workloads {
			wl := wl
			t.Run(wl.name, func(t *testing.T) {
				t.Parallel()
				cfg := config{workload: wl.name, seed: 1, ops: 2, warmup: 1, setups: 1, nodes: 3000, probe: 40, dir: t.TempDir()}

				res, out := runToy(t, cfg)
				checkOutput(t, out, res, endToEnd)
				for _, d := range endToEnd {
					if v := res.Metrics[d.Name].Value; v <= 0 {
						t.Errorf("%s = %v, want above zero", d.Name, v)
					}
				}

				cfg.trace = true
				res, out = runToy(t, cfg)
				checkOutput(t, out, res, perLayer)
				if _, err := os.Stat(cfg.dir + "/spans-" + wl.name + ".json"); err != nil {
					t.Errorf("span file: %v", err)
				}
				mu.Lock()
				defer mu.Unlock()
				for name, v := range res.Metrics {
					if v.Value != 0 {
						produced[name] = true
					}
				}
			})
		}
	})
	for _, d := range perLayer {
		if !produced[d.Name] && !mayBeZero[d.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", d.Name)
		}
	}
}

func runToy(t *testing.T, cfg config) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("trace=%v: %v\n%s", cfg.trace, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < cfg.ops {
		t.Fatalf("trace=%v: correct=%v, %d of %d ops failed\n%s", cfg.trace, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

func checkOutput(t *testing.T, out string, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("result carries %d metrics, the table has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if got := res.Metrics[d.Name].Unit; got != d.Unit {
			t.Errorf("%s: unit %q in the result, want %q", d.Name, got, d.Unit)
		}
		lines := 0
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
				lines++
			}
		}
		if lines != 1 {
			t.Errorf("%s printed on %d lines with unit %s, want 1\n%s", d.Name, lines, d.Unit, out)
		}
	}
}

func TestMetricNames(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or used twice", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// TestManifest holds BENCHMARK.json to the tables in this package.
func TestManifest(t *testing.T) {
	t.Parallel()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := manifest(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`:\n got %s\nwant %s", got, want)
	}
}
