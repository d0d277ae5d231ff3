// Package octsparse implements the sparse fixpoint of the packed relational
// analysis (Octagon_sparse of Table 3): octagon pack values propagate along
// the pack-level def-use graph instead of control flow. The solver is the
// octagon instance of the component-schedule engine
// (internal/solver/compsched).
package octsparse

import (
	"time"

	"sparrow/internal/cfg"
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/solver/compsched"
)

// Options configures the sparse octagon solver (see the interval sparse
// solver for field meanings).
type Options struct {
	Timeout  time.Duration
	MaxSteps int
	// Metrics, when non-nil, receives the solver's work counters (pops,
	// value-changing joins, effective widenings) when Analyze returns.
	Metrics *metrics.Collector
	// Budget is the cooperative cancellation token (internal/runtime),
	// polled at the Timeout stride; a breach stops the solver like a
	// timeout (TimedOut set). nil is free.
	Budget *rt.Budget
	// Workers is ignored: the fixpoint is sequential, and its result does
	// not depend on the caller's worker budget.
	Workers int
}

// Result is the sparse relational fixpoint.
type Result struct {
	Acc     []octsem.OMem
	Out     []octsem.OMem
	Reached []bool
	Steps   int
	// Joins counts per-pack pushes that changed a node's stored output;
	// Widenings the effective widening applications among them (widened
	// state ≠ plain join).
	Joins     int
	Widenings int
	// Rounds counts the component-schedule waves.
	Rounds   int
	TimedOut bool
}

// octagon is the packed-octagon domain instance of the engine.
type octagon struct {
	e *compsched.Engine[octsem.OMem]
	s *octsem.Sem
	// counts[n] is node n's widening safety-valve counter: the number of
	// its firings that changed some stored pack.
	counts  []int32
	rootEnt ir.PointID
}

// Analyze runs the sparse relational analysis over the pack-level def-use
// graph g.
func Analyze(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *Result {
	e := compsched.New[octsem.OMem](prog, pre, g)
	e.MaxSteps = opt.MaxSteps
	e.Poll = compsched.Limit(opt.Timeout, opt.Budget)
	e.Stride = 64 // octagon firings cost far more than interval ones
	root := prog.ProcByID(prog.Main).Entry
	d := &octagon{e: e, s: s, counts: make([]int32, g.NumNodes()), rootEnt: root}
	e.Run(d, root)
	e.Flush(opt.Metrics)
	return &Result{
		Acc:       e.Acc,
		Out:       e.Out,
		Reached:   e.Reached,
		Steps:     e.Steps,
		Joins:     e.Joins,
		Widenings: e.Widenings,
		Rounds:    e.Rounds,
		TimedOut:  e.TimedOut,
	}
}

// AnalyzeParallel is Analyze. It exists for callers written against the
// former parallel solver (the perfbench harness), whose Workers setting no
// longer affects the fixpoint.
func AnalyzeParallel(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *Result {
	return Analyze(prog, pre, s, g, opt)
}

// Transfer applies pt's command; a call binds the actuals of every callee,
// and the root entry injects the arbitrary initial state.
func (d *octagon) Transfer(pt *ir.Point, acc octsem.OMem) (octsem.OMem, bool) {
	if pt.ID == d.rootEnt {
		return d.s.TopState(), true
	}
	if _, isCall := pt.Cmd.(ir.Call); !isCall {
		return d.s.Transfer(pt, acc)
	}
	out := acc
	for _, p := range d.e.Pre.CalleesOf(pt.ID) {
		out = d.s.BindFormals(pt, d.e.Prog.ProcByID(p), out)
	}
	return out, true
}

// Push joins the produced packs on D̂(n) into the stored ones (widening at
// widening nodes and past the safety valve) and propagates changed packs to
// dependency successors. A nil pack is one the node does not produce.
func (d *octagon) Push(n dug.NodeID, m octsem.OMem) {
	e := d.e
	isEntry := false
	if !e.G.IsPhi(n) {
		_, isEntry = e.Prog.Point(ir.PointID(n)).Cmd.(ir.Entry)
	}
	forceWiden := cfg.ForceWiden(int(d.counts[n]), isEntry)
	changed := false
	cur := e.G.Out(n)
	for _, l := range e.G.Defs[n] {
		nv := m.Get(l)
		if nv == nil {
			continue
		}
		old := e.Out[n].Get(l)
		joined := nv
		if old != nil {
			// Fused join: the unchanged case previously paid a separate Eq,
			// which re-closed the stored (possibly widened, unclosed) octagon
			// on every push.
			var jch bool
			joined, jch = old.JoinChanged(nv)
			if !jch {
				continue
			}
			if e.G.Widen[n] || forceWiden {
				wv := old.Widen(joined)
				if !wv.Eq(joined) {
					e.Widenings++
				}
				joined = wv
			}
		} else if nv.IsBottom() {
			continue
		}
		changed = true
		e.Joins++
		e.Out[n] = e.Out[n].Set(l, joined)
		for _, succ := range cur.Seek(l) {
			sacc := e.Acc[succ]
			sold := sacc.Get(l)
			if sold != nil && joined.LessEq(sold) {
				continue
			}
			if sold == nil {
				e.Acc[succ] = sacc.Set(l, joined)
			} else {
				e.Acc[succ] = sacc.Set(l, sold.Join(joined))
			}
			e.Route(succ)
		}
	}
	if changed {
		d.counts[n]++
	}
}

// ValueAt returns the fixpoint pack state tracked at point pt for pack p.
func (r *Result) ValueAt(g *dug.Graph, pt ir.PointID, p pack.ID) (octsem.OMem, bool) {
	n := dug.NodeID(pt)
	for _, dl := range g.Defs[n] {
		if dl == p {
			return r.Out[n], true
		}
	}
	for _, ul := range g.Uses[n] {
		if ul == p {
			return r.Acc[n], true
		}
	}
	return octsem.OBot, false
}
