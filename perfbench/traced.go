package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sparrow/internal/check"
)

// passLayers aggregates one traced pass over the population.
type passLayers struct {
	self  map[string]float64 // summed self time per layer
	wall  map[string]float64 // summed span time per layer
	cpu   map[string]float64 // summed process CPU time per layer
	alloc map[string]float64 // summed allocated bytes per layer
	root  []float64          // analysis span time per analysis
	// rootCPU is the process CPU time of each analysis span.
	rootCPU []float64
	// gcCPU and usedCPU are the runtime's GC CPU and non-idle CPU
	// seconds across the pass's analyses.
	gcCPU, usedCPU float64
	counts         []*counts
}

// traced checks the traced pipeline against the analyzer, then alternates
// untraced and traced passes until the time is spent, and derives the
// per-layer metrics from the traced passes' spans.
func (r *runner) traced(out io.Writer) ([]metric, error) {
	for i, p := range r.progs {
		runtime.GC()
		r.attempted++
		o, c, err := analyzeTraced(r.w, p, &tracer{t0: time.Now()}, 0)
		if err != nil {
			r.fails.add(p.name, "traced analysis error", err.Error())
			continue
		}
		ref, diffs, err := equivalence(r.w, p, c)
		switch {
		case err != nil:
			r.fails.add(p.name, "analysis error", err.Error())
		case len(diffs) > 0:
			r.fails.add(p.name, "traced pipeline differs from the analyzer", diffs...)
		case r.check(i, ref, "public API"):
			r.check(i, o, "traced pipeline")
		}
	}

	tr := &tracer{t0: time.Now()}
	var untracedCPU []float64
	var passes []*passLayers
	start := time.Now()
	for len(passes) == 0 || morePasses(start, len(passes), r.cfg.seconds) {
		for i := range r.progs {
			if s, ok := r.measure(i); ok {
				untracedCPU = append(untracedCPU, s.cpu)
			}
		}
		passes = append(passes, r.tracedPass(tr))
	}
	if err := r.writeSpans(tr); err != nil {
		return nil, err
	}
	return r.layerMetrics(out, passes, untracedCPU), nil
}

// tracedPass runs every program once through the traced pipeline.
func (r *runner) tracedPass(tr *tracer) *passLayers {
	pl := &passLayers{self: map[string]float64{}, wall: map[string]float64{}, cpu: map[string]float64{}, alloc: map[string]float64{}}
	// The reading after each analysis includes one forced collection of
	// the benchmark's own heap; its cost is measured once per pass, as the
	// heap grows with the spans, and taken out of every reading.
	forcedGC, forcedUsed := forcedGCCost()
	for i, p := range r.progs {
		runtime.GC()
		before := readMetrics(mGCCPU, mTotalCPU, mIdleCPU)
		r.attempted++
		id := len(tr.spans)
		o, c, err := analyzeTraced(r.w, p, tr, id)
		if err != nil {
			r.fails.add(p.name, "traced analysis error", err.Error())
			continue
		}
		if !r.check(i, o, "traced pipeline") {
			continue
		}
		runtime.GC() // publishes the runtime's CPU accounting
		after := readMetrics(mGCCPU, mTotalCPU, mIdleCPU)
		pl.gcCPU += max(after[0]-before[0]-forcedGC, 0)
		pl.usedCPU += max((after[1]-before[1])-(after[2]-before[2])-forcedUsed, 0)
		pl.counts = append(pl.counts, c)
		spans := tr.spans[id:]
		children := 0.0
		for j := range spans {
			s := &spans[j]
			pl.wall[s.Name] += s.wall()
			pl.cpu[s.Name] += s.CPUS
			pl.alloc[s.Name] += s.AllocBytes
			if s.Parent >= 0 {
				pl.self[s.Name] += s.wall()
				children += s.wall()
			}
		}
		root := spans[0].wall()
		pl.root = append(pl.root, root)
		pl.rootCPU = append(pl.rootCPU, spans[0].CPUS)
		pl.self[spanCore] += root - children
	}
	return pl
}

// forcedGCCost returns the GC CPU and non-idle CPU seconds of one forced
// collection of the current heap.
func forcedGCCost() (gc, used float64) {
	runtime.GC()
	a := readMetrics(mGCCPU, mTotalCPU, mIdleCPU)
	runtime.GC()
	b := readMetrics(mGCCPU, mTotalCPU, mIdleCPU)
	return b[0] - a[0], (b[1] - a[1]) - (b[2] - a[2])
}

// layerMetrics derives the per-layer metrics. Times are the median over
// traced passes of a layer's summed self time per pass; counts are per
// pass (identical in every pass); shares and parallelism pool all passes.
func (r *runner) layerMetrics(out io.Writer, passes []*passLayers, untracedCPU []float64) []metric {
	n := len(passes)
	perPass := func(f func(*passLayers) float64) float64 {
		xs := make([]float64, n)
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	pooled := func(f func(*passLayers) float64) float64 {
		t := 0.0
		for _, p := range passes {
			t += f(p)
		}
		return t
	}
	var rootAll, rootCPU []float64
	for _, p := range passes {
		rootAll = append(rootAll, p.root...)
		rootCPU = append(rootCPU, p.rootCPU...)
	}
	rootSum := sum(rootAll)
	selfS := func(layer string) float64 { return perPass(func(p *passLayers) float64 { return p.self[layer] }) }
	share := func(layer string) float64 {
		return ratio(pooled(func(p *passLayers) float64 { return p.self[layer] }), rootSum)
	}
	parallelism := func(layer string) float64 {
		return ratio(pooled(func(p *passLayers) float64 { return p.cpu[layer] }),
			pooled(func(p *passLayers) float64 { return p.wall[layer] }))
	}
	allocMB := func(layer string) float64 {
		return perPass(func(p *passLayers) float64 { return p.alloc[layer] / 1e6 })
	}

	// Counts come from the last pass.
	last := passes[n-1].counts
	total := func(f func(*counts) int) float64 {
		t := 0
		for _, c := range last {
			t += f(c)
		}
		return float64(t)
	}
	var packAvg, maxComp float64
	packProgs, restrProgs := 0, 0
	var keepRatio [4]float64
	fullTriples := 0.0
	distinct := 0
	for _, c := range last {
		if c.packs > 0 {
			packAvg += c.packAvg
			packProgs++
		}
		maxComp = max(maxComp, ratio(float64(c.maxComponent), float64(c.nodes)))
		if c.restrTriples != nil {
			restrProgs++
			distinct += c.distinctKeeps
			fullTriples += float64(c.edges)
			for k, t := range c.restrTriples {
				keepRatio[k] += float64(t)
			}
		}
	}
	pops := total(func(c *counts) int { return c.pops })
	edges := total(func(c *counts) int { return c.edges })
	ms := []metric{
		{"frontend.parse_s", "s", selfS(spanParse), n},
		{"frontend.lower_s", "s", selfS(spanLower), n},
		{"frontend.ir_statements", "count", total(func(c *counts) int { return c.irStatements }), len(last)},
		{"prean.s", "s", selfS(spanPrean), n},
		{"prean.passes", "count", total(func(c *counts) int { return c.preanPasses }), len(last)},
		{"prean.parallelism", "ratio", parallelism(spanPrean), n},
		{"prean.alloc_mb", "MB", allocMB(spanPrean), n},
		{"pack.count", "count", total(func(c *counts) int { return c.packs }), len(last)},
		{"pack.avg_size", "count", ratio(packAvg, float64(packProgs)), packProgs},
		{"dug.build_s", "s", selfS(spanDUG), n},
		{"dug.parallelism", "ratio", parallelism(spanDUG), n},
		{"dug.alloc_mb", "MB", allocMB(spanDUG), n},
		{"dug.nodes", "count", total(func(c *counts) int { return c.nodes }), len(last)},
		{"dug.edges", "count", edges, len(last)},
		{"dug.phis", "count", total(func(c *counts) int { return c.phis }), len(last)},
		{"dug.spliced", "count", total(func(c *counts) int { return c.spliced }), len(last)},
		{"dug.splice_ratio", "ratio", ratio(total(func(c *counts) int { return c.spliced }), edges), len(last)},
		{"dug.partition_s", "s", selfS(spanPartition), n},
		{"dug.components", "count", total(func(c *counts) int { return c.components }), len(last)},
		{"dug.max_component_share", "ratio", maxComp, len(last)},
		{"solver.fixpoint_s", "s", selfS(spanSolver), n},
		{"solver.parallelism", "ratio", parallelism(spanSolver), n},
		{"solver.alloc_mb", "MB", allocMB(spanSolver), n},
		{"solver.pops", "count", pops, len(last)},
		{"solver.joins", "count", total(func(c *counts) int { return c.joins }), len(last)},
		{"solver.widenings", "count", total(func(c *counts) int { return c.widenings }), len(last)},
		{"solver.rounds", "count", total(func(c *counts) int { return c.rounds }), len(last)},
		{"solver.join_ratio", "ratio", ratio(total(func(c *counts) int { return c.joins }), pops), len(last)},
		{"check.alarms", "count", total(func(c *counts) int { return c.alarms }), len(last)},
	}
	for k, kind := range check.AllKinds {
		ms = append(ms, metric{"core.restrict.keep_ratio." + kind.ShortName(), "ratio", ratio(keepRatio[k], fullTriples), restrProgs})
	}
	ms = append(ms,
		metric{"core.restrict.distinct_keep_sets", "count", ratio(float64(distinct), float64(restrProgs)), restrProgs},
		metric{"runtime.gc_cpu_fraction", "ratio", ratio(pooled(func(p *passLayers) float64 { return p.gcCPU }),
			pooled(func(p *passLayers) float64 { return p.usedCPU })), n},
		metric{"core.self_s", "s", selfS(spanCore), n},
		metric{"trace.overhead", "ratio", ratio(median(rootCPU), median(untracedCPU)), len(rootCPU)},
	)
	for _, l := range layerNames {
		ms = append(ms, metric{l + ".share", "ratio", share(l), len(rootAll)})
	}

	fmt.Fprintf(out, "traced passes=%d analyses=%d untraced analyses=%d\n", n, len(rootAll), len(untracedCPU))
	fmt.Fprintf(out, "%-16s %12s %8s %12s\n", "layer", "self s/pass", "share", "parallelism")
	for _, l := range layerNames {
		fmt.Fprintf(out, "%-16s %12.4f %7.1f%% %12.2f\n", l, selfS(l), 100*share(l), parallelism(l))
	}
	for _, m := range ms {
		fmt.Fprintf(out, "%-34s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	return ms
}

// writeSpans writes the run's spans, one JSON object per line.
func (r *runner) writeSpans(tr *tracer) error {
	if err := os.MkdirAll(r.cfg.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
