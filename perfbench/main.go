// Command perfbench is the repository benchmark. It analyzes a seeded
// population of generated C programs, one at a time, and prints the
// end-to-end metrics of an untraced run (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload interval-large --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	corpusDir string
	spansDir  string
	// tiny shrinks the population to a few small programs (tests only).
	tiny bool
	// perturb, when non-nil, edits every outcome before it is checked
	// (the negative-control tests).
	perturb func(*outcome)
}

// setups is how many times an untraced run sets up; setup_s is the median.
const setups = 3

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name (interval-large, interval-small, octagon-mid, checkers-restricted)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "population seed: the same seed generates the same programs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measuring time; whole passes over the population run until it is spent")
	fs.IntVar(&trace, "trace", 0, "0 = untraced run with end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&cfg.corpusDir, "corpus", filepath.Join("testdata", "corpus"), "directory of the handwritten corpus programs")
	fs.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if cfg.workload == "" {
		return cfg, errors.New("--workload is required")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	// n is the sample count behind the value.
	n int
}

// result is the JSON object on the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner holds one run's population and bookkeeping.
type runner struct {
	cfg   config
	w     *workload
	progs []program
	refs  []*reference
	// prints are the reference fingerprints, one per program, recorded by
	// the first analysis of each (0 = not yet recorded).
	prints []uint64
	// Of the reference results' tracked, non-bottom intervals, unbounded
	// of exits exit globals are unbounded on a side and boundedDefs of
	// defs assignment values are bounded on both.
	unbounded, exits  int
	boundedDefs, defs int
	attempted         int
	fails             failures
}

func run(cfg config, out io.Writer) error {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return err
	}
	r := &runner{cfg: cfg, w: w}
	n := setups
	if cfg.trace {
		n = 1
	}
	var setupCPU []float64
	for i := 0; i < n; i++ {
		c0 := cpuTime()
		if err := r.setup(); err != nil {
			return err
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d programs=%d workers=%d nproc=%d gomaxprocs=%d %s\n",
		w.name, cfg.seed, len(r.progs), workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var ms []metric
	if cfg.trace {
		ms, err = r.traced(out)
		if err != nil {
			return err
		}
	} else {
		ms = r.untraced(out, setupCPU)
	}
	for _, f := range r.fails.list {
		fmt.Fprintln(out, "FAILED", f)
	}
	res := result{
		Correct:   len(r.fails.list) == 0,
		Attempted: r.attempted,
		Failed:    len(r.fails.list),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range ms {
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// setup generates the population and runs every program once on the
// concrete interpreter, the reference the analyses are checked against.
// Every set-up of a run generates the same population.
func (r *runner) setup() error {
	progs, err := r.w.population(r.cfg.seed, r.cfg.tiny, r.cfg.corpusDir)
	if err != nil {
		return err
	}
	refs := make([]*reference, len(progs))
	for i, p := range progs {
		if refs[i], err = interpret(p); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	r.progs, r.refs, r.prints = progs, refs, make([]uint64, len(progs))
	return nil
}

// check records or compares the fingerprint of an outcome of program i and
// reports whether it passed. The first outcome of a program is the
// reference: it is checked against the concrete run, and later outcomes
// must reproduce it exactly.
func (r *runner) check(i int, o *outcome, via string) bool {
	p := r.progs[i]
	if r.cfg.perturb != nil {
		r.cfg.perturb(o)
	}
	fp := o.fingerprint()
	if r.prints[i] == 0 {
		if vs := soundness(o, r.refs[i]); len(vs) > 0 {
			r.fails.add(p.name, "unsound ("+via+")", vs...)
			return false
		}
		r.prints[i] = fp
		u, n := o.unbounded()
		r.unbounded += u
		r.exits += n
		b, d := o.boundedDefs()
		r.boundedDefs += b
		r.defs += d
		return true
	}
	if fp != r.prints[i] {
		r.fails.add(p.name, "result differs from the reference analysis ("+via+")")
		return false
	}
	return true
}

// sample is one measured untraced analysis.
type sample struct {
	cpu, wall float64 // seconds
	stmts     int
	// peak is the largest heap growth over the analysis's starting heap.
	peak   float64
	alarms int
}

// measure runs one untraced analysis of program i from a fresh heap,
// timing source text to verdict, and checks its outcome.
func (r *runner) measure(i int) (sample, bool) {
	p := r.progs[i]
	runtime.GC()
	r.attempted++
	base := readMetrics(mHeapObjects)[0]
	hs := startHeapSampler()
	c0, t0 := cpuTime(), time.Now()
	o, _, err := analyzeAPI(r.w, p, nil)
	wall, cpu := time.Since(t0), cpuTime()-c0
	peak := float64(hs.finish()) - base
	if err != nil {
		r.fails.add(p.name, "analysis error", err.Error())
		return sample{}, false
	}
	if !r.check(i, o, "public API") {
		return sample{}, false
	}
	return sample{cpu: cpu.Seconds(), wall: wall.Seconds(), stmts: o.prog.NumStatements(), peak: peak, alarms: len(o.alarms)}, true
}

// untraced measures whole passes over the population until the time is
// spent and derives the end-to-end metrics.
func (r *runner) untraced(out io.Writer, setupCPU []float64) []metric {
	var cpu, wall []float64
	perProg := make([][]float64, len(r.progs))
	var peaks []float64
	var stmts, passes, alarms int
	start := time.Now()
	for ; passes == 0 || morePasses(start, passes, r.cfg.seconds); passes++ {
		for i := range r.progs {
			s, ok := r.measure(i)
			if !ok {
				continue
			}
			perProg[i] = append(perProg[i], s.cpu)
			cpu = append(cpu, s.cpu)
			wall = append(wall, s.wall)
			stmts += s.stmts
			peaks = append(peaks, s.peak)
			alarms += s.alarms
		}
	}
	for i, p := range r.progs {
		fmt.Fprintf(out, "program %-20s %8.4f cpu-s median of %d\n", p.name, median(perProg[i]), len(perProg[i]))
	}
	ms := []metric{
		{"setup_s", "s", median(setupCPU), len(setupCPU)},
		{"verdict_cpu_s.p50", "s", hdQuantile(cpu, 0.5), len(cpu)},
		{"stmts_per_cpu_s", "statements/s", ratio(float64(stmts), sum(cpu)), len(cpu)},
		{"peak_heap_mb", "MB", sum(peaks) / float64(max(len(peaks), 1)) / 1e6, len(peaks)},
		{"bounded_defs_ratio", "ratio", ratio(float64(r.boundedDefs), float64(r.defs)), r.defs},
	}
	for _, m := range ms {
		fmt.Fprintf(out, "%-18s %14.6g %-13s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	// Reported, not gated: wall times move with the CPU time the host
	// steals from the machine, alarms and failed_ratio are 0 on most
	// workloads (the result's failed/attempted counts carry the latter),
	// and unbounded_ratio sits near 1, leaving a loss little room to show.
	info := []metric{
		{"verdict_s.p50", "s", hdQuantile(wall, 0.5), len(wall)},
		{"stmts_per_s", "statements/s", ratio(float64(stmts), sum(wall)), len(wall)},
		{"max_heap_mb", "MB", slices.Max(append(peaks, 0)) / 1e6, len(peaks)},
		{"alarms", "count", ratio(float64(alarms), float64(passes)), passes},
		{"failed_ratio", "ratio", ratio(float64(len(r.fails.list)), float64(r.attempted)), r.attempted},
		{"unbounded_ratio", "ratio", ratio(float64(r.unbounded), float64(r.exits)), r.exits},
	}
	// A p90 needs ten samples beyond it.
	if len(cpu) >= 100 {
		info = append(info,
			metric{"verdict_cpu_s.p90", "s", hdQuantile(cpu, 0.9), len(cpu)},
			metric{"verdict_s.p90", "s", hdQuantile(wall, 0.9), len(wall)})
	}
	for _, m := range info {
		fmt.Fprintf(out, "%-18s %14.6g %-13s n=%d (not gated)\n", m.name, m.value, m.unit, m.n)
	}
	return ms
}

// morePasses reports whether another pass should start: whole passes run
// until the measuring time is spent, and a pass starts only if it is
// expected to end nearer the deadline than stopping now would.
func morePasses(start time.Time, passes int, seconds float64) bool {
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(passes)/2 < seconds
}
