// Per-checker sparsification: solve the fixpoint only on the location
// universe one checker can observe (symbol-specific sparse analysis). The
// pipeline per checker kind is
//
//	observed locations  (check.CheckerFor(kind).Observed)
//	∪ control seeds     (branch-condition uses, shared across kinds)
//	→ backward closure  (prean.ClosureIndex, staged once per Result)
//	→ group the kinds whose closures (keep sets) are identical
//	→ restricted DUG    (dug.BuildRestricted — filter, not rebuild), per group
//	→ sparse fixpoint on the restricted graph (the full graph's partition),
//	  per group
//	→ each kind's alarms (check.RunKinds) on its group's fixpoint
//
// The contract, gated by the fuzz restriction oracle and the corpus parity
// tests: the restricted run's alarms of the kind are bit-identical to the
// full sparse solve's alarms of that kind. Kinds sharing a keep set share
// the restricted graph, hence the solve, so grouping changes no result.
package core

import (
	"fmt"
	"slices"
	"time"

	"sparrow/internal/check"
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/par"
	"sparrow/internal/prean"
	"sparrow/internal/solver/sparse"
)

// CheckerRun is the outcome of one per-checker restricted solve.
type CheckerRun struct {
	Kind check.Kind
	// SolvedWith is the kind whose restricted solve this run reports: Kind
	// itself, or an earlier kind of the same AnalyzeCheckers call whose
	// keep set is identical (the two share one graph and one solve).
	SolvedWith check.Kind
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
	// Both are the shared solve's times when SolvedWith != Kind.
	SolveTime time.Duration
	TotalTime time.Duration
	// Steps and TimedOut mirror the solver result.
	Steps    int
	TimedOut bool
}

// closureInputs returns the per-Result restriction inputs, staged on first
// use and shared by every later call (safe for concurrent callers): the
// branch-condition seed set and the closure index.
func (r *Result) closureInputs() ([]ir.LocID, *prean.ClosureIndex) {
	r.closureOnce.Do(func() {
		r.ctrlSeeds = r.pre.ControlSeeds(r.Prog, r.isem)
		r.closures = r.pre.NewClosureIndex(r.Prog, r.isem)
	})
	return r.ctrlSeeds, r.closures
}

// seedSet is the closure seed set of kinds: the control seeds plus every
// location the kinds' checkers observe.
func (r *Result) seedSet(kinds ...check.Kind) []ir.LocID {
	seeds, _ := r.closureInputs()
	for _, k := range kinds {
		seeds = ir.MergeLocs(nil, seeds, check.CheckerFor(k).Observed(r.Prog, r.isem, r.pre.Mem))
	}
	return seeds
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
	_, idx := r.closureInputs()
	rg := dug.BuildRestricted(r.graph, idx.Closure(r.seedSet(opt.kinds()...)))
	stop()
	r.graph = rg
	stop = r.col.Phase(metrics.PhaseFix)
	r.sres = sparse.Analyze(r.Prog, r.pre, rg, sopt)
	stop()
}

// keepGroup is the kinds of one AnalyzeCheckers call (indices into its
// kinds, ascending) whose keep sets are identical.
type keepGroup struct {
	keep    []ir.LocID
	members []int
}

// keepGroups computes every kind's keep set — one closure per distinct
// seed set — and groups the kinds by keep-set equality, in kinds order.
func (r *Result) keepGroups(kinds []check.Kind) []keepGroup {
	_, idx := r.closureInputs()
	var seedSets, closed [][]ir.LocID
	var groups []keepGroup
	for i, k := range kinds {
		seeds := r.seedSet(k)
		j := slices.IndexFunc(seedSets, func(s []ir.LocID) bool { return slices.Equal(s, seeds) })
		if j < 0 {
			j = len(seedSets)
			seedSets = append(seedSets, seeds)
			closed = append(closed, idx.Closure(seeds))
		}
		keep := closed[j]
		g := slices.IndexFunc(groups, func(g keepGroup) bool { return slices.Equal(g.keep, keep) })
		if g < 0 {
			g = len(groups)
			groups = append(groups, keepGroup{keep: keep})
		}
		groups[g].members = append(groups[g].members, i)
	}
	return groups
}

// AnalyzeCheckers runs the restricted pipeline for every kind, solving each
// distinct keep set once: the kinds whose closures coincide share one
// restricted graph and one fixpoint, and each runs its own checker on it.
// The groups (not the kinds) fan out over at most workers goroutines; the
// keep sets are computed before the fan-out. Results are ordered like kinds
// and each is bit-identical to an AnalyzeChecker call for that kind — the
// same graph gives the same solve — except SolvedWith and the wall times,
// which are the shared solve's. A panic inside a pipeline re-raises as
// *par.PanicError (the fork-join contract).
func (r *Result) AnalyzeCheckers(kinds []check.Kind, workers int) ([]*CheckerRun, error) {
	if err := r.checkerPrecondition(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	stop := r.col.Phase(metrics.PhaseRestrict)
	groups := r.keepGroups(kinds)
	stop()
	prefix := time.Since(t0)
	runs := make([]*CheckerRun, len(kinds))
	par.For(len(groups), workers, func(lo, hi int) {
		for _, g := range groups[lo:hi] {
			r.solveGroup(kinds, g, prefix, runs)
		}
	})
	return runs, nil
}

// solveGroup filters the full graph to g's keep set, solves it once and
// fills runs[i] for every member i from that one fixpoint. The solve feeds
// its work counters nowhere: the run collector keeps the full solve's
// numbers, and only the restr_* size counters and the restricted phase
// time (one span per group) are recorded. prefix is the keep-set stage's
// wall time, counted into every TotalTime.
func (r *Result) solveGroup(kinds []check.Kind, g keepGroup, prefix time.Duration, runs []*CheckerRun) {
	stop := r.col.Phase(metrics.PhaseRestrict)
	defer stop()
	t0 := time.Now()
	rg := dug.BuildRestricted(r.graph, g.keep)
	nodes, rows, triples := rg.ActiveStats()

	ts := time.Now()
	sres := sparse.Analyze(r.Prog, r.pre, rg, sparse.Options{
		Timeout:    r.Opts.Timeout,
		MaxSteps:   r.Opts.MaxSteps,
		Narrow:     r.Opts.Narrow,
		EntryMarks: r.marks,
	})
	solve := time.Since(ts)

	acc := func(pt ir.PointID) mem.Mem { return sres.Acc[pt] }
	lead := kinds[g.members[0]]
	for _, i := range g.members {
		k := kinds[i]
		if cn, cr, ct, ok := restrCounters(k); ok {
			r.col.Set(cn, int64(nodes))
			r.col.Set(cr, int64(rows))
			r.col.Set(ct, int64(triples))
		}
		runs[i] = &CheckerRun{
			Kind:        k,
			SolvedWith:  lead,
			Alarms:      check.RunKinds(r.Prog, r.isem, sres.Reached, acc, []check.Kind{k}),
			Keep:        len(g.keep),
			Nodes:       nodes,
			Rows:        rows,
			Triples:     triples,
			FullTriples: r.graph.EdgeCount,
			SolveTime:   solve,
			Steps:       sres.Steps,
			TimedOut:    sres.TimedOut,
		}
	}
	total := prefix + time.Since(t0)
	for _, i := range g.members {
		runs[i].TotalTime = total
	}
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
// observe and returns that kind's alarms plus the restriction statistics:
// the one-kind case of AnalyzeCheckers. It requires a completed sparse
// interval run (the full graph is filtered, never rebuilt) and uses the
// run's own semantics — in particular the same entry-mark configuration —
// so the restricted alarms are bit-identical to the full run's alarms of
// the kind. The restricted solve runs the same component schedule as the
// full one, over the full graph's partition (dug.BuildRestricted shares
// it). Concurrent calls on one Result are safe.
func (r *Result) AnalyzeChecker(kind check.Kind) (*CheckerRun, error) {
	runs, err := r.AnalyzeCheckers([]check.Kind{kind}, 0)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}
