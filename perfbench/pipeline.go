package main

import (
	"fmt"
	"slices"
	"time"

	"sparrow"
	"sparrow/internal/check"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/ast"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/par"
	"sparrow/internal/prean"
	"sparrow/internal/sem"
	"sparrow/internal/solver/octsparse"
	"sparrow/internal/solver/sparse"
)

// analyzeAPI runs one analysis through the public API, the way a user
// does: AnalyzeSource, Alarms and, on restricted workloads,
// AnalyzeCheckers. col may be nil.
func analyzeAPI(w *workload, p program, col *metrics.Collector) (o *outcome, runs []*sparrow.CheckerRun, err error) {
	defer func() {
		if x := recover(); x != nil {
			err = fmt.Errorf("panic: %v", x)
		}
	}()
	opt := w.options()
	opt.Metrics = col
	res, err := sparrow.AnalyzeSource(p.name, p.src, opt)
	if err != nil {
		return nil, nil, err
	}
	o = &outcome{prog: res.Prog, reached: res.Reached, alarms: alarmStrings(res.Alarms())}
	o.itvAt = res.IntervalAt
	if w.restricted {
		runs, err = res.AnalyzeCheckers(check.AllKinds, workers)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range runs {
			o.restricted = append(o.restricted, kindAlarms(r.Kind, r.Alarms)...)
		}
	}
	return o, runs, nil
}

func alarmStrings(as []check.Alarm) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	return out
}

func kindAlarms(k check.Kind, as []check.Alarm) []string {
	out := alarmStrings(as)
	for i := range out {
		out[i] = k.ShortName() + ": " + out[i]
	}
	return out
}

// span is one timed call into a layer. Spans of one analysis share
// Analysis; the analysis itself is the root span (Parent -1).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Analysis int     `json:"analysis"`
	Name     string  `json:"name"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
	// CPUS is the process CPU time (getrusage) spent inside the span and
	// AllocBytes the heap bytes allocated inside it.
	CPUS       float64 `json:"cpu_s"`
	AllocBytes float64 `json:"alloc_bytes"`
}

func (s *span) wall() float64 { return s.EndS - s.StartS }

// tracer keeps the run's spans in memory.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(analysis, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Analysis: analysis, Name: name,
		CPUS: cpuTime().Seconds(), AllocBytes: allocBytes()})
	t.spans[id].StartS = time.Since(t.t0).Seconds()
	return id
}

func (t *tracer) end(id int) {
	end := time.Since(t.t0).Seconds()
	s := &t.spans[id]
	s.EndS = end
	s.CPUS = cpuTime().Seconds() - s.CPUS
	s.AllocBytes = allocBytes() - s.AllocBytes
}

// do runs fn inside a child span of parent.
func (t *tracer) do(analysis, parent int, name string, fn func()) {
	id := t.begin(analysis, parent, name)
	fn()
	t.end(id)
}

// Span names: one per layer call the traced pipeline times.
const (
	spanCore      = "core"
	spanParse     = "frontend.parse"
	spanLower     = "frontend.lower"
	spanPrean     = "prean"
	spanPack      = "pack"
	spanDUG       = "dug.build"
	spanPartition = "dug.partition"
	spanSolver    = "solver.fixpoint"
	spanCheck     = "check"
	spanRestrict  = "core.restrict"
)

// layerNames lists the layers in pipeline order (core = glue).
var layerNames = []string{spanParse, spanLower, spanPrean, spanPack, spanDUG, spanPartition, spanSolver, spanCheck, spanRestrict, spanCore}

// counts are the work counters the traced pipeline records at the layer
// boundaries of one analysis.
type counts struct {
	irStatements                           int
	preanPasses                            int
	packs                                  int
	packAvg                                float64
	nodes, edges, phis, spliced            int
	components, maxComponent               int
	pops, joins, widenings, rounds, alarms int
	// restricted solves: per kind (check.AllKinds order) the restricted
	// triples and alarm count, and the number of distinct keep sets among
	// the kinds.
	restrTriples  []int
	restrAlarms   []int
	distinctKeeps int
}

// analyzeTraced drives the pipeline itself, layer by layer, under spans
// of analysis id. It mirrors what analyzeAPI runs inside the analyzer.
func analyzeTraced(w *workload, p program, tr *tracer, id int) (*outcome, *counts, error) {
	var c counts
	root := tr.begin(id, -1, spanCore)
	defer tr.end(root)
	var (
		f    *ast.File
		prog *ir.Program
		pre  *prean.Result
		err  error
	)
	tr.do(id, root, spanParse, func() { f, err = parser.Parse(p.name, p.src) })
	if err != nil {
		return nil, nil, err
	}
	tr.do(id, root, spanLower, func() { prog, err = lower.File(f) })
	if err != nil {
		return nil, nil, err
	}
	tr.do(id, root, spanPrean, func() { pre = prean.RunWorkers(prog, workers) })
	c.irStatements = prog.NumStatements()
	c.preanPasses = pre.Passes
	o := &outcome{prog: prog}

	var g *dug.Graph
	var part *dug.Partition
	if w.domain == sparrow.Octagon {
		var (
			packs *pack.Set
			osem  *octsem.Sem
			src   *dug.Source
			res   *octsparse.Result
		)
		tr.do(id, root, spanPack, func() {
			packs = pack.Build(prog, 0)
			osem, src = octsem.Source(prog, pre, packs)
		})
		tr.do(id, root, spanDUG, func() { g = dug.BuildFrom(src, dug.Options{Bypass: true, Workers: workers}) })
		tr.do(id, root, spanPartition, func() { part = g.Partition() })
		tr.do(id, root, spanSolver, func() {
			res = octsparse.AnalyzeParallel(prog, pre, osem, g, octsparse.Options{Workers: workers})
		})
		c.packs, c.packAvg = packs.NumPacks(), packs.AvgSize()
		c.pops, c.joins, c.widenings, c.rounds = res.Steps, res.Joins, res.Widenings, res.Rounds
		o.reached = func(pt ir.PointID) bool { return res.Reached[pt] }
		o.itvAt = func(pt ir.PointID, l ir.LocID) (itv.Itv, bool) {
			sp, ok := packs.Singleton(l)
			if !ok {
				return itv.Top, false
			}
			m, tracked := res.ValueAt(g, pt, sp)
			if !tracked {
				return itv.Bot, false
			}
			if oc := m.Get(sp); oc != nil {
				return oc.Interval(0), true
			}
			return itv.Bot, true
		}
	} else {
		kinds := w.kinds()
		var marks func(ir.ProcID) []ir.LocID
		if slices.Contains(kinds, check.UninitRead) {
			marks = entryMarks(prog, pre)
		}
		isem := &sem.Sem{Prog: prog, Callees: pre.CalleesOf, InCycle: pre.CG.InCycle, EntryMarks: marks}
		var res *sparse.Result
		var alarms []check.Alarm
		tr.do(id, root, spanDUG, func() {
			g = dug.Build(prog, pre, dug.Options{Bypass: true, Workers: workers, EntryMarks: marks})
		})
		tr.do(id, root, spanPartition, func() { part = g.Partition() })
		tr.do(id, root, spanSolver, func() {
			res = sparse.AnalyzeParallel(prog, pre, g, sparse.Options{Workers: workers, EntryMarks: marks})
		})
		tr.do(id, root, spanCheck, func() {
			alarms = check.RunKinds(prog, isem, res.Reached, func(pt ir.PointID) mem.Mem { return res.Acc[pt] }, kinds)
		})
		if w.restricted {
			tr.do(id, root, spanRestrict, func() { o.restricted = restrictAll(prog, pre, isem, g, marks, &c) })
		}
		c.pops, c.joins, c.widenings, c.rounds = res.Steps, res.Joins, res.Widenings, res.Rounds
		c.alarms = len(alarms)
		o.alarms = alarmStrings(alarms)
		o.reached = func(pt ir.PointID) bool { return res.Reached[pt] }
		o.itvAt = func(pt ir.PointID, l ir.LocID) (itv.Itv, bool) {
			m, tracked := res.ValueAt(g, pt, l)
			return m.Get(l).Itv(), tracked
		}
	}
	c.nodes, c.edges, c.phis, c.spliced = g.NumNodes(), g.EdgeCount, len(g.Phis), g.SplicedTriples
	c.components, c.maxComponent = part.NumComps(), part.MaxComp
	return o, &c, nil
}

// restrictAll is Result.AnalyzeCheckers over check.AllKinds, driven from
// outside: per kind, the observed set plus the shared control seeds is
// closed backward, the full graph is filtered to it and solved
// sequentially, and the kind's checker runs on the restricted fixpoint.
// The kinds fan out over the worker pool.
func restrictAll(prog *ir.Program, pre *prean.Result, isem *sem.Sem, g *dug.Graph, marks func(ir.ProcID) []ir.LocID, c *counts) []string {
	kinds := check.AllKinds
	ctrl := pre.ControlSeeds(prog, isem)
	alarms := make([][]check.Alarm, len(kinds))
	keeps := make([][]ir.LocID, len(kinds))
	c.restrTriples = make([]int, len(kinds))
	par.For(len(kinds), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			observed := check.CheckerFor(kinds[i]).Observed(prog, isem, pre.Mem)
			keep := pre.ObservedClosure(prog, isem, ir.MergeLocs(nil, observed, ctrl))
			rg := dug.BuildRestricted(g, keep)
			_, _, c.restrTriples[i] = rg.ActiveStats()
			res := sparse.Analyze(prog, pre, rg, sparse.Options{EntryMarks: marks})
			alarms[i] = check.RunKinds(prog, isem, res.Reached,
				func(pt ir.PointID) mem.Mem { return res.Acc[pt] }, []check.Kind{kinds[i]})
			keeps[i] = keep
		}
	})
	var out []string
	c.restrAlarms = make([]int, len(kinds))
	for i, k := range kinds {
		out = append(out, kindAlarms(k, alarms[i])...)
		c.restrAlarms[i] = len(alarms[i])
	}
	for i := range keeps {
		if !slices.ContainsFunc(keeps[:i], func(k []ir.LocID) bool { return slices.Equal(k, keeps[i]) }) {
			c.distinctKeeps++
		}
	}
	return out
}

// entryMarks is the uninitialized-read checker's per-procedure entry mark
// function, as the analyzer computes it: every procedure-scoped variable
// the procedure accesses, minus its formals.
func entryMarks(prog *ir.Program, pre *prean.Result) func(ir.ProcID) []ir.LocID {
	marks := make([][]ir.LocID, len(prog.Procs))
	for _, pr := range prog.Procs {
		for _, l := range pre.Accessed(pr.ID) {
			loc := prog.Locs.Get(l)
			if loc.Kind == ir.LVar && loc.Proc == pr.ID && !slices.Contains(pr.Formals, l) {
				marks[pr.ID] = append(marks[pr.ID], l)
			}
		}
	}
	return func(p ir.ProcID) []ir.LocID { return marks[p] }
}

// equivalence compares the traced pipeline's counters on one program with
// the analyzer's own metrics.Collector counters and restriction results
// for the same program and options. It returns the analyzer's outcome and
// the mismatches.
func equivalence(w *workload, p program, c *counts) (*outcome, []string, error) {
	col := metrics.New()
	o, runs, err := analyzeAPI(w, p, col)
	if err != nil {
		return nil, nil, err
	}
	var diffs []string
	cmp := func(name string, got, want int) {
		if got != want {
			diffs = append(diffs, fmt.Sprintf("%s: traced %d, analyzer %d", name, got, want))
		}
	}
	cmp("dug.nodes", c.nodes, int(col.Get(metrics.CtrDUGNodes)))
	cmp("dug.edges", c.edges, int(col.Get(metrics.CtrDUGEdges)))
	cmp("solver.pops", c.pops, int(col.Get(metrics.CtrPops)))
	cmp("solver.rounds", c.rounds, int(col.Get(metrics.CtrRounds)))
	cmp("alarms", c.alarms, int(col.Get(metrics.CtrAlarms)))
	if w.restricted {
		for i, r := range runs {
			cmp("restricted triples "+r.Kind.ShortName(), c.restrTriples[i], r.Triples)
			cmp("restricted alarms "+r.Kind.ShortName(), c.restrAlarms[i], len(r.Alarms))
		}
	}
	return o, diffs, nil
}
