// Per-checker sparsification: solve the fixpoint only on the location
// universe one checker can observe (symbol-specific sparse analysis). The
// pipeline per checker kind is
//
//	observed locations  (check.CheckerFor(kind).Observed)
//	∪ control seeds     (branch-condition uses, shared across kinds)
//	→ backward closure  (prean.ObservedClosure)
//	→ restricted DUG    (dug.BuildRestricted — filter, not rebuild)
//	→ sparse fixpoint on the restricted graph (the full graph's partition)
//	→ that kind's alarms (check.RunKinds)
//
// The contract, gated by the fuzz restriction oracle and the corpus parity
// tests: the restricted run's alarms of the kind are bit-identical to the
// full sparse solve's alarms of that kind.
package core

import (
	"fmt"
	"time"

	"sparrow/internal/check"
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/par"
	"sparrow/internal/solver/sparse"
)

// CheckerRun is the outcome of one per-checker restricted solve.
type CheckerRun struct {
	Kind check.Kind
	// Alarms is the kind's report from the restricted fixpoint, in the
	// same order RunKinds yields on the full result.
	Alarms []check.Alarm
	// Keep is |L|: the size of the restricted location universe (observed
	// set closed backward over data dependencies, plus control seeds).
	Keep int
	// Nodes, Rows and Triples are the restricted graph's active sizes
	// (nodes with a surviving D̂/Û member, (from, loc) successor rows,
	// dependency triples); FullTriples is the full graph's triple count
	// for the headline ratio.
	Nodes, Rows, Triples int
	FullTriples          int
	// SolveTime is the restricted fixpoint's wall time (closure and graph
	// filtering excluded); TotalTime covers the whole per-checker pipeline.
	SolveTime time.Duration
	TotalTime time.Duration
	// Steps and TimedOut mirror the solver result.
	Steps    int
	TimedOut bool
}

// controlSeedsMemo returns (and caches) the branch-condition seed set.
func (r *Result) controlSeedsMemo() []ir.LocID {
	if r.ctrlSeeds == nil {
		r.ctrlSeeds = r.pre.ControlSeeds(r.Prog, r.isem)
		if r.ctrlSeeds == nil {
			r.ctrlSeeds = []ir.LocID{}
		}
	}
	return r.ctrlSeeds
}

// restrCounters maps a checker kind to its (nodes, rows, triples) counters.
func restrCounters(k check.Kind) (nodes, rows, triples metrics.Counter, ok bool) {
	switch k {
	case check.BufferOverrun:
		return metrics.CtrRestrBufNodes, metrics.CtrRestrBufEdges, metrics.CtrRestrBufTriples, true
	case check.NullDeref:
		return metrics.CtrRestrNullNodes, metrics.CtrRestrNullEdges, metrics.CtrRestrNullTriples, true
	case check.DivByZero:
		return metrics.CtrRestrDivNodes, metrics.CtrRestrDivEdges, metrics.CtrRestrDivTriples, true
	case check.UninitRead:
		return metrics.CtrRestrUninitNodes, metrics.CtrRestrUninitEdges, metrics.CtrRestrUninitTriples, true
	}
	return 0, 0, 0, false
}

// solveRestricted is the degradation ladder's cheapest rung: instead of the
// full sparse fixpoint, solve only the graph restricted to the union of the
// selected checkers' observed closures (plus control seeds). Alarms for the
// selected kinds are exact by the restriction contract; abstract memories
// outside the kept location universe are simply not tracked, which is why
// this runs only as a last resort before a structured timeout. The solve
// runs on the full graph's component partition, which the restricted graph
// shares, and replaces r.graph/r.sres so checkers and accessors see a
// consistent (restricted) view.
func (r *Result) solveRestricted(opt Options, sopt sparse.Options) {
	stop := r.col.Phase(metrics.PhaseRestrict)
	var observed []ir.LocID
	for _, k := range opt.kinds() {
		observed = ir.MergeLocs(nil, observed, check.CheckerFor(k).Observed(r.Prog, r.isem, r.pre.Mem))
	}
	seeds := ir.MergeLocs(nil, observed, r.controlSeedsMemo())
	keep := r.pre.ObservedClosure(r.Prog, r.isem, seeds)
	rg := dug.BuildRestricted(r.graph, keep)
	stop()
	r.graph = rg
	stop = r.col.Phase(metrics.PhaseFix)
	r.sres = sparse.Analyze(r.Prog, r.pre, rg, sopt)
	stop()
}

// AnalyzeCheckers runs AnalyzeChecker for every kind, fanning the restricted
// pipelines out over at most workers goroutines (one per checker — the
// pipelines are independent: each builds its own restricted graph and solves
// it with its own engine). The control-seed set is computed once before
// the fan-out. Results are ordered like kinds and each is bit-identical to a
// sequential AnalyzeChecker call for that kind; only wall times vary with
// the worker count. A panic inside a pipeline re-raises as *par.PanicError
// (the fork-join contract).
func (r *Result) AnalyzeCheckers(kinds []check.Kind, workers int) ([]*CheckerRun, error) {
	if err := r.checkerPrecondition(); err != nil {
		return nil, err
	}
	r.controlSeedsMemo()
	runs := make([]*CheckerRun, len(kinds))
	errs := make([]error, len(kinds))
	par.For(len(kinds), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			runs[i], errs[i] = r.AnalyzeChecker(kinds[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// checkerPrecondition is the shared AnalyzeChecker(s) entry guard.
func (r *Result) checkerPrecondition() error {
	if r.Opts.Domain != Interval || r.Opts.Mode != Sparse || r.graph == nil || r.sres == nil {
		return fmt.Errorf("core: AnalyzeChecker requires a completed sparse interval run")
	}
	if r.Opts.DefUseChains {
		return fmt.Errorf("core: AnalyzeChecker needs the data-dependency graph (def-use-chain mode unsupported)")
	}
	return nil
}

// AnalyzeChecker reruns the sparse fixpoint restricted to what kind can
// observe and returns that kind's alarms plus the restriction statistics.
// It requires a completed sparse interval run (the full graph is filtered,
// never rebuilt) and uses the run's own semantics — in particular the same
// entry-mark configuration — so the restricted alarms are bit-identical to
// the full run's alarms of the kind. The restricted solve runs the same
// component schedule as the full one, over the full graph's partition
// (dug.BuildRestricted shares it), and feeds its work counters nowhere: the
// run collector keeps the full solve's numbers, and only the restr_* size
// counters and the restricted phase time are recorded.
func (r *Result) AnalyzeChecker(kind check.Kind) (*CheckerRun, error) {
	if err := r.checkerPrecondition(); err != nil {
		return nil, err
	}
	stop := r.col.Phase(metrics.PhaseRestrict)
	defer stop()
	t0 := time.Now()

	observed := check.CheckerFor(kind).Observed(r.Prog, r.isem, r.pre.Mem)
	seeds := ir.MergeLocs(nil, observed, r.controlSeedsMemo())
	keep := r.pre.ObservedClosure(r.Prog, r.isem, seeds)
	rg := dug.BuildRestricted(r.graph, keep)
	nodes, rows, triples := rg.ActiveStats()
	if cn, cr, ct, ok := restrCounters(kind); ok {
		r.col.Set(cn, int64(nodes))
		r.col.Set(cr, int64(rows))
		r.col.Set(ct, int64(triples))
	}

	ts := time.Now()
	sres := sparse.Analyze(r.Prog, r.pre, rg, sparse.Options{
		Timeout:    r.Opts.Timeout,
		MaxSteps:   r.Opts.MaxSteps,
		Narrow:     r.Opts.Narrow,
		EntryMarks: r.marks,
	})
	solve := time.Since(ts)

	alarms := check.RunKinds(r.Prog, r.isem, sres.Reached,
		func(pt ir.PointID) mem.Mem { return sres.Acc[pt] }, []check.Kind{kind})
	return &CheckerRun{
		Kind:        kind,
		Alarms:      alarms,
		Keep:        len(keep),
		Nodes:       nodes,
		Rows:        rows,
		Triples:     triples,
		FullTriples: r.graph.EdgeCount,
		SolveTime:   solve,
		TotalTime:   time.Since(t0),
		Steps:       sres.Steps,
		TimedOut:    sres.TimedOut,
	}, nil
}
