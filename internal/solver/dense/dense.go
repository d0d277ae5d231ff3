// Package dense implements the conventional (non-sparse) global fixpoint
// computation of abstract semantics over the interprocedural control-flow
// graph: F#(X) = λc. f#_c(⊔_{c'↪c} X(c')) of Section 2.3, over any
// map-shaped memory domain. The interval and packed-octagon analyzers are
// two instances of one engine (Interval, Octagon).
//
// Two variants correspond to the paper's baselines:
//
//   - vanilla (Options.Localize == false): whole abstract memories are
//     propagated along every control-flow edge, including through call and
//     return edges (Interval_vanilla / Octagon_vanilla).
//   - base (Options.Localize == true): access-based localization [Oh et al.,
//     VMCAI'11] — at a call, only the callee's accessed locations enter the
//     callee; the rest of the caller's memory bypasses it and is re-joined
//     at the return site (Interval_base / Octagon_base).
package dense

import (
	"time"

	"sparrow/internal/cfg"
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/octsem"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/worklist"
)

// Memory is an abstract memory: a lattice element that can be restricted to,
// or stripped of, a sorted set of location IDs (pack IDs for octagons).
type Memory[M any] interface {
	Join(M) M
	// JoinChanged, WidenChanged and NarrowChanged also report whether the
	// result differs from the receiver.
	JoinChanged(M) (M, bool)
	WidenChanged(M) (M, bool)
	NarrowChanged(M) (M, bool)
	RestrictSorted([]ir.LocID) M
	RemoveSorted([]ir.LocID) M
}

// Semantics is the abstract transfer function over memories of type M.
type Semantics[M any] interface {
	// Transfer applies pt's command; ok is false for a refuted assume.
	Transfer(pt *ir.Point, m M) (out M, ok bool)
	// BindFormals assigns the actuals of the call at callPt to callee's
	// formals.
	BindFormals(callPt *ir.Point, callee *ir.Proc, m M) M
}

// Domain is what an analyzer instance hands the engine.
type Domain[M Memory[M]] struct {
	Sem Semantics[M]
	// Root is the input of the root procedure's entry.
	Root M
	// Accessed returns a procedure's sorted accessed set, the locations
	// that enter it under localization.
	Accessed func(ir.ProcID) []ir.LocID
	// Stride is the number of transfers between Timeout/Budget polls.
	Stride int
}

// Interval is the interval instance: the root entry starts from the empty
// memory and the accessed sets are the pre-analysis's. s carries the uninit
// checker's entry marks, if any.
func Interval(s *sem.Sem, pre *prean.Result) Domain[mem.Mem] {
	return Domain[mem.Mem]{Sem: s, Accessed: pre.Accessed, Stride: 256}
}

// Octagon is the packed-octagon instance (s and src from octsem.Source):
// the arbitrary initial memory binds every pack to Top, and the accessed
// sets are pack sets. Octagon transfers cost far more than interval ones,
// so the budget is polled four times as often.
func Octagon(s *octsem.Sem, src *dug.Source) Domain[octsem.OMem] {
	return Domain[octsem.OMem]{
		Sem:      s,
		Root:     s.TopState(),
		Accessed: func(p ir.ProcID) []ir.LocID { return octsem.Accessed(src, p) },
		Stride:   64,
	}
}

// Options configures the dense solver.
type Options struct {
	// Localize enables access-based localization at procedure boundaries.
	Localize bool
	// Timeout aborts the analysis after the given wall-clock budget
	// (0 = none). An aborted analysis sets Result.TimedOut.
	Timeout time.Duration
	// MaxSteps aborts after this many transfer applications (0 = none).
	MaxSteps int
	// Narrow runs this many descending (narrowing) passes after the
	// ascending fixpoint stabilizes.
	Narrow int
	// Metrics, when non-nil, receives the solver's work counters (worklist
	// pops, value-changing joins, effective widenings, localization
	// bypasses) when Analyze returns. The solver counts into Result fields
	// on the hot path and flushes once, so instrumentation costs nothing
	// per step.
	Metrics *metrics.Collector
	// Budget is the cooperative cancellation token (internal/runtime),
	// polled at the same amortized stride as the Timeout check; a breach
	// stops the solver like a timeout (TimedOut set). nil is free.
	Budget *rt.Budget
}

// Result is the dense fixpoint.
type Result[M any] struct {
	// In[pt] is the abstract memory before the command at pt.
	In []M
	// Reached[pt] reports whether pt was ever visited.
	Reached []bool
	// Steps counts transfer-function applications.
	Steps int
	// Widenings counts effective widening applications — ones where the
	// widened value differs from the plain join. When zero, the run never
	// extrapolated, so the result is the least fixpoint and is
	// schedule-independent (the surface on which exact cross-analyzer
	// equality is a theorem; see internal/fuzz).
	Widenings int
	// Joins counts deliveries whose join changed the target's input
	// (ascending phase only).
	Joins int
	// Bypasses counts per-callee localization bypass deliveries — the
	// caller-memory complements routed around callees to return sites
	// (Localize only; ascending phase).
	Bypasses int
	// TimedOut is set when Timeout or MaxSteps aborted the run.
	TimedOut bool
}

// Out returns the post-state of pt (the transfer applied to In[pt]).
func (r *Result[M]) Out(s Semantics[M], pt *ir.Point) M {
	m, _ := s.Transfer(pt, r.In[pt.ID])
	return m
}

type solver[M Memory[M]] struct {
	prog *ir.Program
	pre  *prean.Result
	d    Domain[M]
	opt  Options
	info *cfg.Info
	res  *Result[M]
	wl   *worklist.Worklist
	root ir.PointID

	counts   []int32
	accCache [][]ir.LocID // per proc: accessed set (Localize only)
	deadline time.Time
}

// Analyze runs the dense analysis of prog in domain d, using the
// pre-analysis pre for call resolution.
func Analyze[M Memory[M]](prog *ir.Program, pre *prean.Result, d Domain[M], opt Options) *Result[M] {
	sv := &solver[M]{
		prog: prog,
		pre:  pre,
		d:    d,
		opt:  opt,
		info: cfg.Compute(prog, pre.CG, pre.CalleesOf),
		res: &Result[M]{
			In:      make([]M, len(prog.Points)),
			Reached: make([]bool, len(prog.Points)),
		},
		root:   prog.ProcByID(prog.Main).Entry,
		counts: make([]int32, len(prog.Points)),
	}
	if opt.Localize {
		sv.accCache = make([][]ir.LocID, len(prog.Procs))
		for _, pr := range prog.Procs {
			sv.accCache[pr.ID] = d.Accessed(pr.ID)
		}
	}
	if opt.Timeout > 0 {
		sv.deadline = time.Now().Add(opt.Timeout)
	}
	sv.run()
	if opt.Narrow > 0 && !sv.res.TimedOut {
		sv.narrow(opt.Narrow)
	}
	opt.Metrics.Add(metrics.CtrPops, int64(sv.res.Steps))
	opt.Metrics.Add(metrics.CtrJoins, int64(sv.res.Joins))
	opt.Metrics.Add(metrics.CtrWidenings, int64(sv.res.Widenings))
	opt.Metrics.Add(metrics.CtrBypasses, int64(sv.res.Bypasses))
	return sv.res
}

// run is the ascending phase: a priority worklist over points.
func (sv *solver[M]) run() {
	sv.wl = worklist.New(len(sv.prog.Points), sv.info.Prio)
	sv.res.In[sv.root] = sv.d.Root
	sv.res.Reached[sv.root] = true
	sv.wl.Add(int(sv.root))
	for {
		id, ok := sv.wl.Take()
		if !ok {
			return
		}
		sv.res.Steps++
		if sv.opt.MaxSteps > 0 && sv.res.Steps > sv.opt.MaxSteps {
			sv.res.TimedOut = true
			return
		}
		if (sv.opt.Timeout > 0 || sv.opt.Budget != nil) && sv.res.Steps%sv.d.Stride == 0 {
			if sv.opt.Timeout > 0 && time.Now().After(sv.deadline) ||
				sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
				sv.res.TimedOut = true
				return
			}
		}
		pt := sv.prog.Point(ir.PointID(id))
		if out, ok := sv.d.Sem.Transfer(pt, sv.res.In[pt.ID]); ok {
			sv.route(pt, out, sv.deliver)
		}
	}
}

// route sends out, the post-state of pt, along pt's interprocedural edges:
// a resolved call binds the formals of each callee and enters it (only its
// accessed part, under localization), an exit returns to every return site
// of its procedure, and any other point flows to its CFG successors. Under
// localization the part of a caller's memory a callee does not access
// bypasses the callee to the return site. The bypass is per callee: with
// several (indirect) callees the caller's value of a location accessed by
// one callee still survives along the paths through the others, so
// removing only the union of the access sets would unsoundly drop it.
// Joining the per-callee complements at the return site covers every path.
func (sv *solver[M]) route(pt *ir.Point, out M, send func(t ir.PointID, m M, bypass bool)) {
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := sv.pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			break
		}
		for _, p := range callees {
			callee := sv.prog.ProcByID(p)
			bound := sv.d.Sem.BindFormals(pt, callee, out)
			if sv.opt.Localize {
				bound = bound.RestrictSorted(sv.accCache[p])
			}
			send(callee.Entry, bound, false)
		}
		if sv.opt.Localize {
			for _, p := range callees {
				local := out.RemoveSorted(sv.accCache[p])
				for _, s := range pt.Succs {
					send(s, local, true)
				}
			}
		}
		return
	case ir.Exit:
		m := out
		if sv.opt.Localize {
			m = out.RestrictSorted(sv.accCache[pt.Proc])
		}
		for _, rs := range sv.pre.RetSites[pt.Proc] {
			send(rs, m, false)
		}
		return
	}
	for _, s := range pt.Succs {
		send(s, out, false)
	}
}

// deliver joins m into the input of target, widening at widening points and
// past the safety valve (cfg.ForceWiden), and enqueues the target when its
// input grew (or on first reach).
func (sv *solver[M]) deliver(target ir.PointID, m M, bypass bool) {
	if bypass {
		sv.res.Bypasses++
	}
	first := !sv.res.Reached[target]
	sv.res.Reached[target] = true
	old := sv.res.In[target]
	// The fused join reports the semantic change during the merge itself; a
	// converged delivery returns old physically and allocates nothing.
	joined, jch := old.JoinChanged(m)
	if jch {
		sv.res.Joins++
		sv.counts[target]++
		_, isEntry := sv.prog.Point(target).Cmd.(ir.Entry)
		if sv.info.Widen[target] || cfg.ForceWiden(int(sv.counts[target]), isEntry) {
			// WidenChanged always returns the built result: the unclosed
			// octagon widening representations it stores are what the next
			// widening must start from.
			wv, wch := old.WidenChanged(joined)
			if wch {
				sv.res.Widenings++
			}
			joined = wv
		}
		sv.res.In[target] = joined
	}
	if first || jch {
		sv.wl.Add(int(target))
	}
}

// narrow runs descending passes: it recomputes each point's incoming join
// and narrows the stabilized input towards it, recovering precision lost to
// widening (standard widening/narrowing iteration). Each pass is a Jacobi
// sweep (all contributions computed from the previous iterate, then narrowed
// at once, which is the order-insensitive sound formulation); passes bounds
// the sweeps and iteration stops early at stability.
func (sv *solver[M]) narrow(passes int) {
	for i := 0; i < passes; i++ {
		if sv.opt.Budget != nil && sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
			sv.res.TimedOut = true
			return
		}
		next := make([]M, len(sv.prog.Points))
		reached := make([]bool, len(sv.prog.Points))
		next[sv.root] = sv.d.Root
		reached[sv.root] = true
		push := func(t ir.PointID, m M, _ bool) {
			next[t] = next[t].Join(m)
			reached[t] = true
		}
		for _, pt := range sv.prog.Points {
			if !sv.res.Reached[pt.ID] {
				continue
			}
			if out, ok := sv.d.Sem.Transfer(pt, sv.res.In[pt.ID]); ok {
				sv.route(pt, out, push)
			}
		}
		stable := true
		for id := range sv.res.In {
			if !reached[id] {
				continue
			}
			narrowed, nch := sv.res.In[id].NarrowChanged(next[id])
			if nch {
				stable = false
				sv.res.In[id] = narrowed
			}
		}
		if stable {
			return
		}
	}
}
