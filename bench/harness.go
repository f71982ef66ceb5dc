package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's settings. Flags set workload, seed, seconds, ops,
// trace and dir; the rest are main.go's constants, which only the toy-size
// test overrides.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed loop
	ops      int     // when > 0, a fixed number of timed ops instead of seconds
	trace    bool
	dir      string // where journals and the span file go
	warmup   int    // warm-up ops per set-up; < 0 takes the workload's own count
	setups   int    // how many times the set-up is repeated for its median
	nodes    int    // cut workloads: graph size; 0 takes the workload's own
	probe    int    // service-burst traced run: jobs pushed through the second queue
}

// env is what a workload's set-up and ops see.
type env struct {
	cfg config
	ctx context.Context
	// rec is nil while tracing is off. Workloads read it at call time, so
	// the harness can switch tracing on between loops.
	rec *recorder
}

// workload is one named set of inputs. Every op of a workload does the same
// amount of work, one client issues them back to back (a closed loop), and
// each workload runs in a process of its own.
type workload struct {
	name   string
	why    string
	warmup int // fixed, so that set-up time repeats
	// heapAfter is the number of timed ops after which live_heap_mb is read:
	// fixed, so that what grows with every op (job table, journal state)
	// has grown by the same amount in every run, and small enough that
	// every run gets there inside its seconds.
	heapAfter int
	setup     func(e *env) (*instance, error)
}

// instance is a set-up workload. op is timed and verifies its own output;
// prepare and check run outside the timed window, before and after it.
type instance struct {
	op      func(i int) (commShare float64, err error)
	prepare func(i int)
	check   func(i int) error
	// layers adds the per-layer numbers spans cannot give (counts, sizes,
	// direct probes). Only the traced run calls it.
	layers func(m map[string]float64) error
	close  func() error
	// note is a choice the set-up made that the numbers depend on; the run
	// prints it once.
	note string
}

func (in *instance) shut() error {
	if in == nil || in.close == nil {
		return nil
	}
	return in.close()
}

var workloads = []workload{spineApps, synthSweep, cutCold, cutRecut, serviceBurst}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// loopStats is what one loop of ops measured. Memory, GC and CPU deltas
// bracket each op, so prepare and check never count.
type loopStats struct {
	ms        []float64
	busy      time.Duration
	allocB    uint64
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	cpu       time.Duration
	shareSum  float64
	failed    int
	firstErr  error
}

func (s *loopStats) n() float64 { return float64(len(s.ms)) }

// add appends what a later loop measured.
func (s *loopStats) add(t loopStats) {
	s.ms = append(s.ms, t.ms...)
	s.busy += t.busy
	s.allocB += t.allocB
	s.mallocs += t.mallocs
	s.gcCycles += t.gcCycles
	s.gcPauseNs += t.gcPauseNs
	s.cpu += t.cpu
	s.shareSum += t.shareSum
}

// rusage returns the process's CPU time so far and its peak resident set.
func rusage() (cpu time.Duration, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// loop runs ops first, first+1, ... : n of them when n > 0, otherwise whole
// ops until limit has passed.
func (e *env) loop(in *instance, first, n int, limit time.Duration) loopStats {
	var st loopStats
	if n <= 0 && limit <= 0 {
		return st
	}
	var m0, m1 runtime.MemStats
	begin := time.Now()
	for i := first; ; i++ {
		if in.prepare != nil {
			in.prepare(i)
		}
		e.rec.setOp(i)
		runtime.ReadMemStats(&m0)
		c0, _ := rusage()
		t0 := time.Now()
		share, err := in.op(i)
		d := time.Since(t0)
		c1, _ := rusage()
		runtime.ReadMemStats(&m1)

		st.ms = append(st.ms, ms(d))
		st.busy += d
		st.cpu += c1 - c0
		st.allocB += m1.TotalAlloc - m0.TotalAlloc
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.gcCycles += m1.NumGC - m0.NumGC
		st.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		st.shareSum += share
		if err == nil && in.check != nil {
			err = in.check(i)
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
		done := i - first + 1
		if n > 0 && done >= n {
			break
		}
		if n <= 0 && time.Since(begin) >= limit {
			break
		}
	}
	return st
}

// liveHeapMB is the heap still reachable after two forced collections (the
// second frees what finalizers released in the first).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// opTime is a run's op time: its third-fastest op. What disturbs this
// machine only ever adds time, in stretches of seconds during which every op
// takes a third to two thirds longer, and in a bad minute they cover nine
// tenths of a run: over ten runs of service-burst in such a minute the 10th
// percentile spread by 35 %, the 5th by 13 %, the third-fastest op by 7 %.
// Third and not first, so that one or two ops that got away cheaply (no
// collection fell into them) do not set the number.
func opTime(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[min(2, len(s)-1)]
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 50 {
		mid := len(s) / 2
		if len(s)%2 == 0 {
			return (s[mid-1] + s[mid]) / 2
		}
		return s[mid]
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// run executes one workload in this process and prints its metrics to w;
// the caller prints the result as the driver's last line.
func run(cfg config, w io.Writer) (*result, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.warmup >= 0 {
		wl.warmup = cfg.warmup
	} else {
		cfg.warmup = wl.warmup
	}
	r := &runner{e: &env{cfg: cfg, ctx: context.Background()}, wl: wl, w: w, res: &result{Metrics: map[string]metricValue{}}}
	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d  scratch %s\n", wl.name, cfg.seed, runtime.GOMAXPROCS(0), cfg.dir)
	if cfg.trace {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if cerr := r.in.shut(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: close: %w", wl.name, cerr)
	}
	if err != nil {
		return nil, err
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", r.firstErr)
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// runner is one run in progress.
type runner struct {
	e        *env
	wl       workload
	w        io.Writer
	in       *instance // the live set-up; run closes it
	res      *result
	firstErr error
	noted    bool
}

// setup makes a fresh instance the live one.
func (r *runner) setup() error {
	in, err := r.wl.setup(r.e)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", r.wl.name, err)
	}
	if in.note != "" && !r.noted {
		fmt.Fprintf(r.w, "  %s\n", in.note)
		r.noted = true
	}
	r.in = in
	return nil
}

// loop runs ops on the live instance and counts them into the result.
func (r *runner) loop(first, n int, limit time.Duration) loopStats {
	st := r.e.loop(r.in, first, n, limit)
	r.res.Attempted += len(st.ms)
	r.res.Failed += st.failed
	if r.firstErr == nil {
		r.firstErr = st.firstErr
	}
	return st
}

func (r *runner) endToEnd() error {
	cfg, warmup := r.e.cfg, r.wl.warmup
	// A run is cfg.setups rounds of one complete set-up and a share of the
	// timed ops on it, so that set-ups and timed ops both sample the whole
	// length of the run: what disturbs this machine lasts seconds, and three
	// set-ups in a row share one disturbed stretch.
	rounds := max(cfg.setups, 1)
	budget := time.Duration(cfg.seconds * float64(time.Second)) // timed seconds left
	var setupS []float64
	var st loopStats
	var live float64
	for i := 0; i < rounds; i++ {
		// Closing the previous set-up and its garbage are not this one's cost.
		if err := r.in.shut(); err != nil {
			return fmt.Errorf("%s: closing set-up %d: %w", r.wl.name, i, err)
		}
		r.in = nil
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return err
		}
		r.loop(0, warmup, 0)
		setupS = append(setupS, time.Since(t0).Seconds())

		// This round's share: of the op count when -ops fixes it, otherwise
		// of the seconds that are left.
		n, limit := 0, budget/time.Duration(rounds-i)
		if cfg.ops > 0 {
			n, limit = cfg.ops/rounds, 0
			if i < cfg.ops%rounds {
				n++
			}
		}
		begin, first := time.Now(), 0
		if i == 0 {
			// The live heap is read between two ops of the first round, after
			// a fixed number of them: at the end of a loop the op count, and
			// with it the job table, differs from run to run by a few percent.
			first = r.wl.heapAfter
			if n > 0 {
				first = min(first, n)
				n -= first
			}
			st = r.loop(warmup, first, 0)
			live = liveHeapMB()
			limit = max(limit-time.Since(begin), 0)
		}
		st.add(r.loop(warmup+first, n, limit))
		budget -= time.Since(begin)
	}

	fmt.Fprintf(r.w, "  samples: %d timed ops for op_ms_3rd_fastest, %d set-ups of %d warm-up ops each for setup_s (%.3v s)\n",
		len(st.ms), len(setupS), warmup, setupS)
	report(r.w, r.res, endToEnd, map[string]float64{
		"setup_s":           slices.Min(setupS),
		"op_ms_3rd_fastest": opTime(st.ms),
		"alloc_mb_per_op":   float64(st.allocB) / 1e6 / st.n(),
		"allocs_per_op":     float64(st.mallocs) / st.n(),
		"live_heap_mb":      live,
		"comm_share_pct":    st.shareSum / st.n() * 100,
	})
	fmt.Fprintf(r.w, "  %-34s %12.4f %%   (%d of %d ops, warm-up included)\n", "failed_ops_pct",
		100*float64(r.res.Failed)/float64(r.res.Attempted), r.res.Failed, r.res.Attempted)
	_, peak := rusage()
	fmt.Fprintf(r.w, "  diagnostics: op_ms_p10 %.3f  op_ms_p50 %.3f  op_ms_p90 %.3f  ops_per_s %.3f  peak_rss_mb %.1f  cpu_ms_per_op %.3f  gc_cycles_per_op %.2f\n",
		percentile(st.ms, 10), percentile(st.ms, 50), percentile(st.ms, 90), st.n()/st.busy.Seconds(), peak, ms(st.cpu)/st.n(), float64(st.gcCycles)/st.n())
	return nil
}

// traced sets up once and runs untraced and traced ops in turn, so that drift
// in the machine hits both alike and the difference between their op times
// (third-fastest, as end to end) is what the recorder costs.
func (r *runner) traced() error {
	cfg, warmup := r.e.cfg, r.wl.warmup
	rec := newRecorder()
	r.e.rec = rec // set-up spans count: graph.synthesize
	if err := r.setup(); err != nil {
		return err
	}
	r.e.rec = nil
	r.loop(0, warmup, 0)
	var base, traced loopStats
	limit := time.Duration(cfg.seconds * float64(time.Second))
	for i, begin := 0, time.Now(); ; i++ {
		if i%2 == 0 {
			r.e.rec = nil
			base.add(r.loop(warmup+i, 1, 0))
			continue
		}
		r.e.rec = rec
		traced.add(r.loop(warmup+i, 1, 0))
		if cfg.ops > 0 && len(traced.ms) >= cfg.ops || cfg.ops == 0 && time.Since(begin) >= limit {
			break
		}
	}

	m := spanMetrics(rec)
	if r.in.layers != nil {
		if err := r.in.layers(m); err != nil {
			return fmt.Errorf("%s: layer probes: %w", r.wl.name, err)
		}
	}
	_, peak := rusage()
	m["harness.op_ms_p90"] = percentile(base.ms, 90)
	m["harness.peak_rss_mb"] = peak
	m["harness.cpu_ms_per_op"] = ms(base.cpu) / base.n()
	m["harness.gc_cycles_per_op"] = float64(base.gcCycles) / base.n()
	m["harness.gc_pause_ms_per_op"] = float64(base.gcPauseNs) / 1e6 / base.n()
	m["harness.trace_overhead_pct"] = (opTime(traced.ms)/opTime(base.ms) - 1) * 100

	path := filepath.Join(cfg.dir, "spans-"+r.wl.name+".json")
	if err := rec.write(path, r.wl.name, cfg.seed); err != nil {
		return err
	}
	fmt.Fprintf(r.w, "  %d untraced and %d traced ops, %d spans in %s\n", len(base.ms), len(traced.ms), len(rec.spans), path)
	report(r.w, r.res, perLayer, m)
	return nil
}

// spanMetrics fills every per-layer time from the spans of the same name:
// metric "x.y_ms" is the mean of span "x.y", "x.y_ms_p50" and "x.y_ms_p99"
// its percentiles.
func spanMetrics(rec *recorder) map[string]float64 {
	m := map[string]float64{}
	by := rec.byName()
	for _, d := range perLayer {
		name, stat := d.Name, ""
		for _, suffix := range []string{"_ms", "_ms_p50", "_ms_p99"} {
			if strings.HasSuffix(d.Name, suffix) {
				name, stat = strings.TrimSuffix(d.Name, suffix), suffix
			}
		}
		st := by[name]
		if st == nil {
			continue
		}
		switch stat {
		case "_ms":
			m[d.Name] = st.meanMs()
		case "_ms_p50":
			m[d.Name] = percentile(st.ms, 50)
		case "_ms_p99":
			m[d.Name] = percentile(st.ms, 99)
		}
	}
	return m
}

// report prints every metric of defs by name with its unit and stores it in
// the result; a metric the run did not produce reads 0.
func report(w io.Writer, res *result, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		v := m[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-34s %12.4f %s\n", d.Name, v, d.Unit)
	}
}
