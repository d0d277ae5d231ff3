// Package prean implements the flow-insensitive pre-analysis of
// Section 3.2: the abstraction that collapses all control points into one
// global invariant (α_pre forgets control flow), giving a conservative
// memory T̂pre ⊒ every point of the real fixpoint.
//
// The pre-analysis serves three roles in the framework:
//  1. it supplies the conservative memory from which D̂(c)/Û(c) are derived,
//  2. it resolves function pointers, fixing the call graph for every
//     analyzer (the paper resolves function pointers the same way),
//  3. it provides per-procedure accessed-location summaries used both by
//     access-based localization (Interval_base) and by the interprocedural
//     def-use-graph construction.
package prean

import (
	"sparrow/internal/callgraph"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
)

// Result is the pre-analysis outcome.
type Result struct {
	// Mem is the single flow-insensitive invariant (T̂pre at every point).
	Mem mem.Mem
	// Callees[pt] lists the resolved callees of call point pt.
	Callees map[ir.PointID][]ir.ProcID
	// CG is the call graph over resolved callees.
	CG *callgraph.Graph
	// DefSummary[p]/UseSummary[p] are the transitive definition/use
	// summaries of procedure p: every abstract location p or its callees
	// may define/use (the D*(P)/U*(P) of the interprocedural extension in
	// Section 5). Each summary is a sorted, interned []ir.LocID slice —
	// identical summaries share one backing array — and must be treated as
	// immutable; membership is ir.LocsContain.
	DefSummary [][]ir.LocID
	UseSummary [][]ir.LocID
	// RetSites[p] lists the RetBind points receiving returns from p;
	// CallSites[p] the Call points invoking p.
	RetSites  [][]ir.PointID
	CallSites [][]ir.PointID
	// Passes is the number of global iterations until stabilization.
	Passes int

	// accessed memoizes Accessed per procedure: the union of the def and
	// use summaries never changes after Run, and Accessed sits on the
	// localization hot path (every call boundary restricts through it).
	accessed [][]ir.LocID
}

// CalleesOf returns the resolved callees of a call point.
func (r *Result) CalleesOf(pt ir.PointID) []ir.ProcID { return r.Callees[pt] }

// Accessed reports the union of the def and use summaries of p (the
// localization set of the access-based technique) as a sorted slice. The
// union is computed once per procedure and cached; callers must not mutate
// the result.
func (r *Result) Accessed(p ir.ProcID) []ir.LocID {
	if r.accessed == nil {
		r.accessed = make([][]ir.LocID, len(r.DefSummary))
	}
	if a := r.accessed[p]; a != nil {
		return a
	}
	out := ir.MergeLocs(nil, r.DefSummary[p], r.UseSummary[p])
	r.accessed[p] = out
	return out
}

// joinPasses is how many plain join passes run before widening kicks in.
const joinPasses = 3

// Run computes the pre-analysis of prog.
func Run(prog *ir.Program) *Result { return RunBudget(prog, nil) }

// RunWorkers is Run; workers is ignored (the pre-analysis is sequential).
func RunWorkers(prog *ir.Program, workers int) *Result { return Run(prog) }

// RunBudget is Run under a cooperative budget: bud is checkpointed between
// global-invariant passes, in-pass every few thousand points, and between
// the post-fixpoint stages. A pre-analysis cannot produce a partial result,
// so a breach aborts via rt.Abort (recovered at the core boundary).
// bud == nil is Run.
func RunBudget(prog *ir.Program, bud *rt.Budget) *Result {
	s := sem.New(prog)
	g := mem.Bot
	pass := 0
	for {
		pass++
		bud.Checkpoint(rt.PhasePrean)
		next := g
		// Alternate sweep direction: argument values flow down the call
		// graph and return values flow up, so a fixed direction propagates
		// long call chains one level per pass (quadratic overall);
		// alternating sweeps cover both directions in two passes.
		if pass%2 == 1 {
			for i, pt := range prog.Points {
				if bud != nil && i%2048 == 2047 {
					bud.Checkpoint(rt.PhasePrean)
				}
				next = step(s, pt, next, next)
			}
		} else {
			for i := len(prog.Points) - 1; i >= 0; i-- {
				if bud != nil && i%2048 == 2047 {
					bud.Checkpoint(rt.PhasePrean)
				}
				next = step(s, prog.Points[i], next, next)
			}
		}
		if pass > joinPasses {
			next = g.Widen(next)
		}
		if next.Eq(g) {
			break
		}
		g = next
	}
	bud.Checkpoint(rt.PhasePrean)

	r := &Result{
		Mem:     g,
		Callees: make(map[ir.PointID][]ir.ProcID),
	}
	// Resolve the call graph from the final invariant.
	se := sem.New(prog)
	for _, pt := range prog.Points {
		if c, ok := pt.Cmd.(ir.Call); ok {
			r.Callees[pt.ID] = append([]ir.ProcID(nil), se.Eval(c.F, g).Fns()...)
		}
	}
	bud.Checkpoint(rt.PhasePrean)
	r.CG = callgraph.Build(prog, r.CalleesOf)
	r.Passes = pass
	se.InCycle = r.CG.InCycle
	r.buildSummaries(prog, se)
	bud.Checkpoint(rt.PhasePrean)
	r.buildSites(prog)
	// Intern the summaries and memoize the localization sets eagerly:
	// solvers read them from multiple goroutines, so the cache must be
	// complete before Result escapes, and repetitive programs (many callers
	// of the same leaves) collapse onto a handful of shared backing arrays;
	// first-interned-wins keeps the canonical slices deterministic.
	it := ir.NewLocSetInterner()
	for p := range r.DefSummary {
		r.DefSummary[p] = it.Intern(r.DefSummary[p])
		r.UseSummary[p] = it.Intern(r.UseSummary[p])
	}
	r.accessed = make([][]ir.LocID, len(prog.Procs))
	var buf []ir.LocID
	for p := range r.accessed {
		buf = ir.MergeLocs(buf[:0], r.DefSummary[p], r.UseSummary[p])
		r.accessed[p] = it.Intern(buf)
	}
	return r
}

// step folds the contribution of one point into the accumulating global
// invariant. acc is threaded so one pass applies every command once.
func step(s *sem.Sem, pt *ir.Point, cur, acc mem.Mem) mem.Mem {
	switch c := pt.Cmd.(type) {
	case ir.Call:
		// Bind formals of every currently-resolved callee.
		fv := s.Eval(c.F, cur)
		for _, p := range fv.Fns() {
			callee := s.Prog.ProcByID(p)
			for i, f := range callee.Formals {
				var v val.Val
				if i < len(c.Args) {
					v = s.Eval(c.Args[i], cur)
				} else {
					v = val.TopInt
				}
				acc = acc.WeakSet(f, v)
			}
		}
		return acc
	case ir.RetBind:
		if c.L == ir.None {
			return acc
		}
		call := s.Prog.Point(c.CallPt).Cmd.(ir.Call)
		fv := s.Eval(call.F, cur)
		v := val.Bot
		if len(fv.Fns()) == 0 {
			v = val.TopInt
		}
		for _, p := range fv.Fns() {
			rl := s.Prog.ProcByID(p).RetLoc
			if rl != ir.None {
				v = v.Join(cur.Get(rl))
			} else {
				v = v.Join(val.TopInt)
			}
		}
		return acc.WeakSet(c.L, v)
	case ir.Assume:
		// Refinement is meaningless against a global invariant; assumes
		// contribute nothing (their uses are still counted for D̂/Û).
		return acc
	default:
		out, ok := s.Transfer(pt, cur)
		if !ok {
			return acc
		}
		return acc.Join(out)
	}
}

// buildSummaries computes transitive def/use summaries bottom-up over the
// call-graph condensation, iterating within SCCs until stable.
func (r *Result) buildSummaries(prog *ir.Program, s *sem.Sem) {
	n := len(prog.Procs)
	ownD := make([][]ir.LocID, n)
	ownU := make([][]ir.LocID, n)
	s.Callees = r.CalleesOf
	var d, u []ir.LocID
	for _, pr := range prog.Procs {
		d, u = d[:0], u[:0]
		for _, id := range pr.Points {
			d, u = s.DefsUsesAppend(prog.Point(id), r.Mem, d, u)
		}
		d, u = ir.DedupLocs(d), ir.DedupLocs(u)
		ownD[pr.ID] = append([]ir.LocID(nil), d...)
		ownU[pr.ID] = append([]ir.LocID(nil), u...)
	}
	r.DefSummary, r.UseSummary = SummarizeSCCs(r.CG, ownD, ownU)
}

// SummarizeSCCs closes command-local own-def/own-use sets (sorted slices,
// indexed by procedure) transitively over the call-graph condensation and
// returns the per-procedure summaries. The condensation is emitted
// callees-first by Tarjan, so one sweep with an inner SCC fixpoint suffices.
// Unions are sorted-slice merges into two alternating scratch buffers (a
// merge may not write into a buffer it is reading from); because a summary
// only grows, a length comparison detects change exactly. The relational
// analysis reuses this over pack IDs.
func SummarizeSCCs(cg *callgraph.Graph, ownD, ownU [][]ir.LocID) (defSum, useSum [][]ir.LocID) {
	n := len(ownD)
	defSum = make([][]ir.LocID, n)
	useSum = make([][]ir.LocID, n)
	var bufs [2][]ir.LocID
	which := 0
	unionAll := func(own []ir.LocID, p ir.ProcID, summ [][]ir.LocID) []ir.LocID {
		cur := own
		for _, q := range cg.Succs[p] {
			s := summ[q]
			if len(s) == 0 {
				continue
			}
			dst := ir.MergeLocs(bufs[which][:0], cur, s)
			bufs[which] = dst
			cur = dst
			which ^= 1
		}
		return cur
	}
	for _, comp := range cg.SCCs {
		for changed := true; changed; {
			changed = false
			for _, p := range comp {
				if d := unionAll(ownD[p], p, defSum); len(d) != len(defSum[p]) {
					defSum[p] = append([]ir.LocID(nil), d...)
					changed = true
				}
				if u := unionAll(ownU[p], p, useSum); len(u) != len(useSum[p]) {
					useSum[p] = append([]ir.LocID(nil), u...)
					changed = true
				}
			}
		}
	}
	return defSum, useSum
}

func (r *Result) buildSites(prog *ir.Program) {
	n := len(prog.Procs)
	r.RetSites = make([][]ir.PointID, n)
	r.CallSites = make([][]ir.PointID, n)
	for _, pt := range prog.Points {
		rb, ok := pt.Cmd.(ir.RetBind)
		if !ok {
			continue
		}
		for _, p := range r.Callees[rb.CallPt] {
			r.CallSites[p] = append(r.CallSites[p], rb.CallPt)
			r.RetSites[p] = append(r.RetSites[p], pt.ID)
		}
	}
}
