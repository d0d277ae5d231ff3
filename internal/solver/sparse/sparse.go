// Package sparse implements the sparse fixpoint computation of Section 2.7:
// F̂_a(X) = λc. f#_c(⊔_{cd ↝(l) c} X(cd)|l) — abstract values propagate along
// the approximated data dependencies of the def-use graph instead of control
// flow, visiting only the entries in D̂(c)/Û(c) at each node.
//
// The solver is the interval instance of the component-schedule engine
// (internal/solver/compsched). It additionally tracks control reachability
// (the production dense solver prunes CFG-unreachable code, so the sparse
// solver gates node transfers on the same reachability to preserve its
// precision): a point fires only once reachable, and refuted assumes
// propagate neither values nor reachability.
package sparse

import (
	"time"

	"sparrow/internal/cfg"
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/solver/compsched"
)

// Options configures the sparse solver.
type Options struct {
	// Timeout aborts after the wall-clock budget (0 = none).
	Timeout time.Duration
	// MaxSteps aborts after this many node firings (0 = none).
	MaxSteps int
	// Narrow runs this many descending (narrowing) Jacobi sweeps over the
	// def-use graph after the ascending fixpoint, recovering precision lost
	// to widening. Each sweep recomputes every node's incoming values from
	// the current outputs and narrows the accumulated inputs towards them.
	Narrow int
	// Workers is ignored: the fixpoint is sequential, and its result does
	// not depend on the caller's worker budget.
	Workers int
	// Metrics, when non-nil, receives the solver's work counters (node
	// firings, value-changing joins, effective widenings, rounds) when the
	// run completes.
	Metrics *metrics.Collector
	// EntryMarks is forwarded to the semantics (sem.Sem.EntryMarks): the
	// per-procedure locations an Entry marks possibly-uninitialized for the
	// uninit checker. Must match the EntryMarks the def-use graph was built
	// with (dug.Options.EntryMarks), or entry definitions and dependency
	// edges disagree. Nil (the default) disables marking.
	EntryMarks func(ir.ProcID) []ir.LocID
	// Budget is the cooperative cancellation token (internal/runtime),
	// polled at the same amortized stride as the Timeout check. On breach
	// the solver stops exactly like a timeout (TimedOut set, partial
	// result); the core boundary inspects the budget to tell them apart.
	// nil (the default) is free.
	Budget *rt.Budget
}

// Result is the sparse fixpoint.
type Result struct {
	// Acc[n] is the partial memory accumulated at node n over Û(n) (the
	// join of incoming dependency values).
	Acc []mem.Mem
	// Out[n] is the partial memory produced at node n over D̂(n). By
	// Lemma 2 it agrees with the dense fixpoint on D̂(n).
	Out []mem.Mem
	// Reached[pt] is control reachability per point.
	Reached []bool
	// Steps counts node firings.
	Steps int
	// Widenings counts effective widening applications (widened value ≠
	// plain join); zero means the run computed the schedule-independent
	// least fixpoint (see the dense counterpart).
	Widenings int
	// Joins counts per-location pushes that changed a node's stored output
	// (ascending phase only).
	Joins int
	// Rounds counts the component-schedule waves.
	Rounds int
	// TimedOut reports an aborted run.
	TimedOut bool
}

// interval is the interval domain instance of the engine.
type interval struct {
	e   *compsched.Engine[mem.Mem]
	s   *sem.Sem
	opt Options

	// counts are the widening safety-valve counters, one per (node, def
	// location): slot cbase[n]+i counts the value-changing pushes of
	// Defs[n][i]. Keying the counters by location (not by firing) makes a
	// location's widening schedule a function of its own update history
	// alone, which is what lets a solve restricted to a subset of the
	// locations reproduce the full solve's widening decisions exactly (the
	// per-checker restricted runs rely on this).
	counts []int32
	cbase  []int32

	// inc is the memo layer of an incremental solve (nil otherwise).
	inc *incrObserver
}

func newInterval(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options) *interval {
	n := g.NumNodes()
	cbase := make([]int32, n+1)
	for i := 0; i < n; i++ {
		cbase[i+1] = cbase[i] + int32(len(g.Defs[i]))
	}
	e := compsched.New[mem.Mem](prog, pre, g)
	e.MaxSteps = opt.MaxSteps
	e.Poll = compsched.Limit(opt.Timeout, opt.Budget)
	return &interval{
		e:      e,
		s:      &sem.Sem{Prog: prog, Callees: pre.CalleesOf, InCycle: pre.CG.InCycle, EntryMarks: opt.EntryMarks},
		opt:    opt,
		counts: make([]int32, cbase[n]),
		cbase:  cbase,
	}
}

// Analyze runs the sparse analysis over the def-use graph g.
func Analyze(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options) *Result {
	d := newInterval(prog, pre, g, opt)
	d.e.Run(d, prog.ProcByID(prog.Main).Entry)
	res := d.result()
	if opt.Narrow > 0 && !res.TimedOut {
		d.narrow(res, opt.Narrow)
	}
	d.e.Flush(opt.Metrics)
	return res
}

// AnalyzeParallel is Analyze. It exists for callers written against the
// former parallel solver (the perfbench harness), whose Workers setting no
// longer affects the fixpoint.
func AnalyzeParallel(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options) *Result {
	return Analyze(prog, pre, g, opt)
}

func (d *interval) result() *Result {
	e := d.e
	return &Result{
		Acc:       e.Acc,
		Out:       e.Out,
		Reached:   e.Reached,
		Steps:     e.Steps,
		Widenings: e.Widenings,
		Joins:     e.Joins,
		Rounds:    e.Rounds,
		TimedOut:  e.TimedOut,
	}
}

// Transfer applies pt's command; a call binds the actuals of every callee.
func (d *interval) Transfer(pt *ir.Point, acc mem.Mem) (mem.Mem, bool) {
	if _, isCall := pt.Cmd.(ir.Call); !isCall {
		return d.s.Transfer(pt, acc)
	}
	out := acc
	for _, p := range d.e.Pre.CalleesOf(pt.ID) {
		out = d.s.BindFormals(pt, d.e.Prog.ProcByID(p), out)
	}
	return out, true
}

// Push compares the produced values on D̂(n) against the stored ones,
// widens at widening nodes, and propagates changed values to dependency
// successors.
func (d *interval) Push(n dug.NodeID, m mem.Mem) {
	e := d.e
	isEntry := false
	if !e.G.IsPhi(n) {
		_, isEntry = e.Prog.Point(ir.PointID(n)).Cmd.(ir.Entry)
	}
	base := d.cbase[n]
	cur := e.G.Out(n)
	for i, l := range e.G.Defs[n] {
		nv := m.Get(l)
		old := e.Out[n].Get(l)
		// Fused join: the steady-state case (nv ⊑ old) is a comparison with
		// no allocation, replacing the Join-then-Eq pair.
		joined, jch := old.JoinChanged(nv)
		if !jch {
			continue
		}
		cnt := d.counts[base+int32(i)]
		d.counts[base+int32(i)] = cnt + 1
		e.Joins++
		if e.G.Widen[n] || cfg.ForceWiden(int(cnt), isEntry) {
			wv, wch := old.WidenChanged(joined)
			if wch {
				e.Widenings++
			}
			joined = wv
		}
		e.Out[n] = e.Out[n].Set(l, joined)
		if d.inc != nil {
			d.inc.rec.defs[defSlot{n, int32(i)}] = struct{}{}
		}
		for _, succ := range cur.Seek(l) {
			d.pushTo(succ, l, joined)
		}
	}
}

// pushTo joins v into succ's accumulated input at l and routes succ when
// that changed it.
func (d *interval) pushTo(succ dug.NodeID, l ir.LocID, v val.Val) {
	e := d.e
	sacc := e.Acc[succ]
	if v.LessEq(sacc.Get(l)) {
		return
	}
	e.Acc[succ] = sacc.WeakSet(l, v)
	local := e.Route(succ)
	if d.inc != nil {
		d.inc.pushed(succ, l, local)
	}
}

// outOf recomputes a node's output memory from its current accumulated
// input (the f#_c(acc) of the descending phase). ok is false for refuted
// assumes and unreachable points.
func (d *interval) outOf(res *Result, n dug.NodeID) (mem.Mem, bool) {
	if d.e.G.IsPhi(n) {
		return res.Acc[n], true
	}
	pt := d.e.Prog.Point(ir.PointID(n))
	if !res.Reached[pt.ID] {
		return mem.Bot, false
	}
	return d.Transfer(pt, res.Acc[n])
}

// narrow runs descending Jacobi sweeps: recompute every node's output from
// its (current) input, rebuild the inputs as the join of dependency
// predecessors' outputs, and narrow the stored inputs/outputs towards them.
// Sweeps stop early at stability.
func (d *interval) narrow(res *Result, passes int) {
	g := d.e.G
	n := g.NumNodes()
	for pass := 0; pass < passes; pass++ {
		if d.opt.Budget != nil && d.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
			res.TimedOut = true
			return
		}
		outs := make([]mem.Mem, n)
		okv := make([]bool, n)
		for i := 0; i < n; i++ {
			outs[i], okv[i] = d.outOf(res, dug.NodeID(i))
		}
		// Rebuild inputs from the recomputed outputs.
		newAcc := make([]mem.Mem, n)
		for i := 0; i < n; i++ {
			if !okv[i] {
				continue
			}
			cur := g.Out(dug.NodeID(i))
			for _, l := range g.Defs[dug.NodeID(i)] {
				v := outs[i].Get(l)
				if v.IsBot() {
					continue
				}
				for _, succ := range cur.Seek(l) {
					newAcc[succ] = newAcc[succ].WeakSet(l, v)
				}
			}
		}
		stable := true
		for i := 0; i < n; i++ {
			na, nch := res.Acc[i].NarrowChanged(newAcc[i])
			if nch {
				stable = false
				res.Acc[i] = na
			}
		}
		// Refresh stored outputs from the narrowed inputs so Out keeps
		// agreeing with f#(Acc) on D̂. Detect first (allocation-free), then
		// rebuild only on change — the rebuild binds every def location,
		// explicit bottoms included, exactly as before.
		for i := 0; i < n; i++ {
			out, ok := d.outOf(res, dug.NodeID(i))
			if !ok {
				continue
			}
			changed := false
			for _, l := range g.Defs[dug.NodeID(i)] {
				if _, ch := res.Out[i].Get(l).NarrowChanged(out.Get(l)); ch {
					changed = true
					break
				}
			}
			if !changed {
				continue
			}
			refreshed := res.Out[i]
			for _, l := range g.Defs[dug.NodeID(i)] {
				refreshed = refreshed.Set(l, res.Out[i].Get(l).Narrow(out.Get(l)))
			}
			stable = false
			res.Out[i] = refreshed
		}
		if stable {
			return
		}
	}
}

// ValueAt returns the sparse fixpoint value of location l at point pt: its
// produced value if l ∈ D̂(pt), otherwise the accumulated incoming value
// (l ∈ Û(pt)). The boolean reports whether the point tracks l at all.
func (r *Result) ValueAt(g *dug.Graph, pt ir.PointID, l ir.LocID) (v mem.Mem, tracked bool) {
	n := dug.NodeID(pt)
	for _, dl := range g.Defs[n] {
		if dl == l {
			return r.Out[n], true
		}
	}
	for _, ul := range g.Uses[n] {
		if ul == l {
			return r.Acc[n], true
		}
	}
	return mem.Bot, false
}
