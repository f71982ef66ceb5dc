// Command bench is the repository's one repeatable benchmark: five workloads
// over the spine, the cut core and the service, each run in a process of its
// own on a single P, reporting the end-to-end metrics of metrics.go with
// tracing off and the per-layer metrics in a separate traced run. README.md
// says why each workload and metric was chosen.
//
// The driver's contract is one run per invocation:
//
//	bash bench/run.sh --workload cut-cold --seed 7 --seconds 13 --trace 0
//
// whose last line of output is one JSON object. -workload all runs the five
// one after another, and -selfcheck compares two interleaved sets of runs of
// this binary against the bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
)

func main() {
	// Single-threaded by design: with a second P the collector runs beside
	// the ops, and three spine-apps ops took 593, 518 and 575 ms against
	// 389, 389 and 404 ms on one. Parallelism gets its own workload when an
	// issue reopens it.
	runtime.GOMAXPROCS(1)
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	// Everything the driver does not pass is a constant: each of these
	// changes the reported numbers, so none is a flag. bench_test.go
	// overrides them in the struct to run at toy size.
	cfg := config{warmup: -1, setups: setUps, probe: probeJobs}
	var trace string
	var selfcheck, printManifest bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the timed loop")
	flag.StringVar(&trace, "trace", "0", "1 records spans into <dir>/spans-<workload>.json and reports the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&cfg.ops, "ops", 0, "run this many timed ops instead of -seconds")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for journals and span files")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two interleaved sets of every workload and compare their medians with the bounds")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json as the tables in this package define it")
	flag.Parse()
	if printManifest {
		_, err := os.Stdout.Write(manifest())
		return err
	}
	on, err := strconv.ParseBool(trace)
	if err != nil {
		return fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	cfg.trace = on
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}

	switch {
	case selfcheck:
		return selfCheck()
	case cfg.workload == "all":
		for _, w := range workloads {
			if _, err := child(w.name, os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

const (
	// setUps is how many rounds of set-up and timed ops a run makes;
	// setup_s is the fastest of the set-ups.
	setUps = 3
	// probeJobs is how many jobs service-burst's traced run pushes through
	// its second queue: enough for a first and a last thousand.
	probeJobs = 3000
	// selfCheckRuns is the runs per set of -selfcheck, interleaved A, B, A,
	// B, ... Five and not the issue's three: a disturbed stretch of this
	// machine slows a whole run by 20 to 60 %, three in ten runs at the
	// worst, and the median of three gives way at the second such run.
	selfCheckRuns = 5
)

// runSeconds is the timed seconds the driver asks for. With the three
// set-ups a run takes 21 to 27 s, which keeps the driver's 114 runs and two
// builds inside its hour.
const runSeconds = 13

// manifest renders BENCHMARK.json. The file at the root of the repository is
// this output, and bench_test.go holds it to that.
func manifest() []byte {
	type entry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []entry
	for _, w := range workloads {
		ws = append(ws, entry{w.name, w.why})
	}
	b, err := json.MarshalIndent(struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []entry     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, ws, endToEnd, perLayer}, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always encode
	}
	return append(b, '\n')
}

// child runs one workload in a process of its own with this invocation's
// flags, copies what it prints to out, and returns its result line.
func child(workload string, out *os.File) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Later flags win, so the parent's -workload and -selfcheck are undone.
	args := append(append([]string(nil), os.Args[1:]...), "-workload", workload, "-selfcheck=false")
	cmd := exec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if out != nil {
		if _, err := out.Write(buf.Bytes()); err != nil {
			return nil, err
		}
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &res, nil
}

// selfCheck is the evidence that the bounds hold on unchanged code: sets A
// and B of the same binary, interleaved so that drift in the machine hits
// both, must agree on every workload and end-to-end metric within its bound.
func selfCheck() error {
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	for round := 0; round < 2*selfCheckRuns; round++ {
		for _, w := range workloads {
			res, err := child(w.name, nil)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				k := key{w.name, name}
				values[round%2][k] = append(values[round%2][k], v.Value)
			}
			fmt.Printf("set %c run %d: %s done\n", 'A'+round%2, round/2+1, w.name)
		}
	}
	// spread is how far one set's own runs lie apart, as a share of their
	// median: where it exceeds the bound, agreement of the medians is luck.
	spread := func(v []float64) float64 { return (slices.Max(v) - slices.Min(v)) / percentile(v, 50) }
	fmt.Printf("%-14s %-18s %14s %14s %9s %9s %8s\n", "workload", "metric", "median A", "median B", "differ", "spread", "bound")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			a, b := percentile(values[0][k], 50), percentile(values[1][k], 50)
			differ := (max(a, b) - min(a, b)) / min(a, b)
			verdict := ""
			if differ > d.Bound && max(a, b)-min(a, b) > d.Floor {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %8.2f%% %8.2f%% %7.2f%%%s\n", w.name, d.Name, a, b,
				100*differ, 100*max(spread(values[0][k]), spread(values[1][k])), 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairs disagree by more than their bound", bad)
	}
	return nil
}
