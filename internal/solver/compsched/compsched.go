// Package compsched is the sparse fixpoint engine of Section 2: one worklist
// iteration with widening over any map-shaped domain S# = L# → V#, run on
// the def-use graph's component schedule. The interval and octagon sparse
// analyzers are two domain instances of it, and full, restricted and
// incremental solves all run on it.
//
// # Component schedule
//
// The dependency relation decomposes into strongly-connected components
// whose condensation is a DAG, numbered topologically (dug.Partition). A
// component's fixpoint depends on nothing but its condensation predecessors,
// so the engine solves one component at a time: a min-heap holds the
// components with a non-empty seed bucket and pops them in ascending — that
// is, topological — order. A popped component consumes its bucket (sorted,
// so the local schedule is canonical) into a priority worklist over its own
// nodes and drains it. Work only ever flows to higher-numbered components:
// value pushes follow dependency edges, and a reachability mark to a later
// component lands in that component's bucket. Once the minimum pending
// component has run, nothing lower can become pending again, so every
// component sees its predecessors stabilized.
//
// Control reachability is the one signal that does not follow dependency
// edges (call→entry, exit→retsite, CFG successors). A mark aimed at a lower
// component — a loop back edge or a recursive return — is deferred: the wave
// ends when the heap drains, the deferred marks are applied in sorted order,
// and the components they seed start the next wave. Applying a mark closes
// reachability transitively through non-assume points, since every command
// but Assume propagates reachability unconditionally once it fires (transfer
// fails only on refuted assumes), so the closure reaches the same set the
// firings would without spending a wave per control step. Reachability is
// monotone over a finite point set, so the waves terminate.
//
// # Division of labor
//
// The engine owns everything that does not depend on the lattice: the seed
// buckets and the component heap, the wave loop, mark routing, the run loop
// with its step/timeout/budget polling, and the Steps/Joins/Widenings/Rounds
// counters. A Domain supplies the node transfer and the per-definition
// join/widen/push, calling Route for every successor whose input it changed.
// An Observer, when set, brackets component runs (the incremental solver's
// record/replay memo layer).
package compsched

import (
	"slices"
	"time"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/worklist"
)

// Domain is the lattice-dependent half of a sparse fixpoint over node
// memories of type M.
type Domain[M any] interface {
	// Transfer computes the output of reachable point pt from its
	// accumulated input. ok is false for a refuted assume: no values and no
	// reachability leave the point.
	Transfer(pt *ir.Point, acc M) (out M, ok bool)
	// Push joins out into node n's stored definitions (widening where due),
	// updates the engine's Joins/Widenings, and for every successor whose
	// accumulated input changed calls Engine.Route.
	Push(n dug.NodeID, out M)
}

// Observer brackets component runs.
type Observer interface {
	// Seeded reports that point t became reachable as an external input of
	// its component: by a mark from another component or by the closure of
	// the deferred marks.
	Seeded(t ir.PointID)
	// Begin is called when component c is about to consume its seed bucket.
	// Returning true means the observer has performed the run itself (see
	// ReplayReach); the engine then skips the live run.
	Begin(c int32) (replayed bool)
	// Fired reports a successful firing of point node n in a live run.
	Fired(n dug.NodeID)
	// End is called after a live run of c completes.
	End(c int32)
}

// Engine is one sparse fixpoint solve over g.
type Engine[M any] struct {
	Prog *ir.Program
	Pre  *prean.Result
	G    *dug.Graph
	P    *dug.Partition

	// Acc[n] is the memory accumulated at node n over Û(n); Out[n] the
	// memory n produced over D̂(n). Reached[pt] is control reachability.
	Acc, Out []M
	Reached  []bool

	// Steps counts node firings, Rounds the waves; Joins and Widenings are
	// maintained by the domain's Push. TimedOut reports an aborted solve.
	Steps, Joins, Widenings, Rounds int
	TimedOut                        bool

	// MaxSteps aborts the solve after this many firings (0 = none).
	MaxSteps int
	// Poll, when non-nil, is called every Stride firings of a component
	// run; returning false aborts the solve like MaxSteps.
	Poll   func() bool
	Stride int
	// Obs, when non-nil, observes component runs.
	Obs Observer

	dom       Domain[M]
	wl        *worklist.Worklist
	comp      int32 // the running component
	replaying bool  // ReplayReach in progress: local marks skip the worklist
	seeds     [][]int32
	pending   []bool  // component is on the heap
	heap      []int32 // min-heap of pending components
	deferred  []ir.PointID
}

// New allocates a solve of g on its component partition. The poll stride
// defaults to 256 firings.
func New[M any](prog *ir.Program, pre *prean.Result, g *dug.Graph) *Engine[M] {
	n := g.NumNodes()
	p := g.Partition()
	return &Engine[M]{
		Prog:    prog,
		Pre:     pre,
		G:       g,
		P:       p,
		Acc:     make([]M, n),
		Out:     make([]M, n),
		Reached: make([]bool, g.PointCount),
		Stride:  256,
		wl:      worklist.New(n, g.Prio),
		seeds:   make([][]int32, p.NumComps()),
		pending: make([]bool, p.NumComps()),
	}
}

// Limit returns the Poll callback for a wall-clock timeout (counted from
// now) and a cooperative budget polled in the fixpoint phase, or nil when
// neither is set.
func Limit(timeout time.Duration, b *rt.Budget) func() bool {
	if timeout <= 0 && b == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	return func() bool {
		if timeout > 0 && time.Now().After(deadline) {
			return false
		}
		return b.Poll(rt.PhaseFix) == rt.OK
	}
}

// Run solves to the fixpoint (or the first abort) from the given initially
// reachable points.
func (e *Engine[M]) Run(dom Domain[M], roots ...ir.PointID) {
	e.dom = dom
	e.applyMarks(roots)
	for len(e.heap) > 0 {
		e.Rounds++
		for len(e.heap) > 0 {
			e.runComponent(e.pop())
			if e.TimedOut {
				return
			}
		}
		slices.Sort(e.deferred)
		e.applyMarks(e.deferred)
		e.deferred = e.deferred[:0]
	}
}

// Flush adds the solve's work counters to col.
func (e *Engine[M]) Flush(col *metrics.Collector) {
	col.Add(metrics.CtrPops, int64(e.Steps))
	col.Add(metrics.CtrJoins, int64(e.Joins))
	col.Add(metrics.CtrWidenings, int64(e.Widenings))
	col.Add(metrics.CtrRounds, int64(e.Rounds))
}

// runComponent consumes c's seed bucket and drains its worklist.
func (e *Engine[M]) runComponent(c int32) {
	seeds := e.seeds[c]
	e.seeds[c] = nil
	e.comp = c
	if e.Obs != nil && e.Obs.Begin(c) {
		return
	}
	slices.Sort(seeds)
	for _, s := range seeds {
		e.wl.Add(int(s))
	}
	local := 0
	for {
		id, ok := e.wl.Take()
		if !ok {
			break
		}
		e.Steps++
		local++
		if e.MaxSteps > 0 && e.Steps > e.MaxSteps ||
			e.Poll != nil && local%e.Stride == 0 && !e.Poll() {
			e.TimedOut = true
			return
		}
		e.fire(dug.NodeID(id))
	}
	if e.Obs != nil {
		e.Obs.End(c)
	}
}

// fire processes one node: a phi relays its accumulated input; a reachable
// point transfers it, marks its control successors, and pushes the result.
func (e *Engine[M]) fire(n dug.NodeID) {
	if e.G.IsPhi(n) {
		e.dom.Push(n, e.Acc[n])
		return
	}
	pt := e.Prog.Point(ir.PointID(n))
	if !e.Reached[pt.ID] {
		return // values wait until the point becomes reachable
	}
	out, ok := e.dom.Transfer(pt, e.Acc[n])
	if !ok {
		return
	}
	if e.Obs != nil {
		e.Obs.Fired(n)
	}
	e.propagateReach(pt, e.mark)
	e.dom.Push(n, out)
}

// propagateReach visits the control successors of pt, mirroring the dense
// solver's interprocedural edges: callee entries for resolved calls, return
// sites for exits, CFG successors otherwise.
func (e *Engine[M]) propagateReach(pt *ir.Point, visit func(ir.PointID)) {
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := e.Pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			for _, s := range pt.Succs {
				visit(s)
			}
			return
		}
		for _, p := range callees {
			visit(e.Prog.ProcByID(p).Entry)
		}
	case ir.Exit:
		for _, rs := range e.Pre.RetSites[pt.Proc] {
			visit(rs)
		}
	default:
		for _, s := range pt.Succs {
			visit(s)
		}
	}
}

// mark routes a reachability mark of t: inside the running component it
// feeds the worklist, in a later component its seed bucket, and a mark to an
// earlier component is deferred to the end of the wave.
func (e *Engine[M]) mark(t ir.PointID) {
	ct := e.P.Comp[t]
	switch {
	case ct < e.comp:
		e.deferred = append(e.deferred, t)
	case e.Reached[t]:
	case ct == e.comp:
		e.Reached[t] = true
		if !e.replaying {
			e.wl.Add(int(t))
		}
	default:
		e.Reached[t] = true
		e.seed(ct, int32(t))
		if e.Obs != nil {
			e.Obs.Seeded(t)
		}
	}
}

// ReplayReach re-runs the marks of a firing of pt for an observer that
// replays the running component: marks inside the component only flip
// reachability (the replayed run already covers its own worklist), marks
// elsewhere route exactly as in a live run.
func (e *Engine[M]) ReplayReach(pt *ir.Point) {
	e.replaying = true
	e.propagateReach(pt, e.mark)
	e.replaying = false
}

// Route schedules node n after its accumulated input changed: onto the
// worklist when n belongs to the running component, else into the seed
// bucket of its (topologically later) component. Reports whether n is local.
func (e *Engine[M]) Route(n dug.NodeID) (local bool) {
	c := e.P.Comp[n]
	if c == e.comp {
		e.wl.Add(int(n))
		return true
	}
	e.seed(c, int32(n))
	return false
}

// applyMarks flips the queued points reachable, seeds their components, and
// closes reachability through non-assume points. Assumes stop the closure:
// whether they propagate waits for the value fixpoint to decide refutation.
func (e *Engine[M]) applyMarks(queue []ir.PointID) {
	enqueue := func(t ir.PointID) {
		if !e.Reached[t] {
			queue = append(queue, t)
		}
	}
	for i := 0; i < len(queue); i++ {
		t := queue[i]
		if e.Reached[t] {
			continue
		}
		e.Reached[t] = true
		e.seed(e.P.Comp[t], int32(t))
		if e.Obs != nil {
			e.Obs.Seeded(t)
		}
		if pt := e.Prog.Point(t); !isAssume(pt) {
			e.propagateReach(pt, enqueue)
		}
	}
}

func isAssume(pt *ir.Point) bool {
	_, ok := pt.Cmd.(ir.Assume)
	return ok
}

// seed adds node n to component c's bucket and c to the heap.
func (e *Engine[M]) seed(c, n int32) {
	e.seeds[c] = append(e.seeds[c], n)
	if e.pending[c] {
		return
	}
	e.pending[c] = true
	h := append(e.heap, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	e.heap = h
}

// pop removes the lowest pending component from the heap.
func (e *Engine[M]) pop() int32 {
	h := e.heap
	c := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.heap = h
	e.pending[c] = false
	return c
}
