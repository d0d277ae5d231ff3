// Incremental sparse solver: a trace-replay memoization layer over the
// engine's component schedule. The memo layer is an observer of the same
// solve Analyze runs (compsched.Observer) that brackets every component run
// with a memo protocol:
//
//	key(c, run k) = H(chain_{k-1}(c) ∥ inputHash_k(c)),  chain_0 = structHash(c)
//
// On a hit the recorded transcript is replayed: the run's internal state
// deltas (final Out/Acc values, widening counters) are applied directly and
// its external effects (reachability marks, cross-component value pushes) are
// re-emitted against the *current* program and graph. On a miss the component
// runs live, instrumented, and the transcript is recorded under the key.
//
// Exactness is by induction over the deterministic schedule. A component
// run is a pure function of (internal structure, internal state, incoming
// effects): the structure hash pins the first, the chain pins the second (it
// hashes the entire input history, and the sequential schedule makes state a
// function of history), and the input hash pins the third. Replay applies
// only final values where the live run pushed ascending chains v1 ⊑ … ⊑ vk,
// which downstream cannot distinguish: the LessEq-gated join accumulates to
// old ⊔ vk either way, and the target is seeded iff vk ⋢ old in both modes.
// Reachability flips are replayed from the fired-point set with the marking
// rules re-run against the current graph, so mark targets are recomputed,
// never trusted from the record.
//
// The replay path credits the recorded Steps/Joins/Widenings, so every solver
// counter — and therefore the metrics report — is bit-identical to a cold
// solve of the same program (the differential tests enforce this).
package sparse

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"sparrow/internal/cfg"
	"sparrow/internal/dug"
	"sparrow/internal/incr"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/val"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
)

// IncrStats reports the cache effectiveness of one incremental solve.
type IncrStats struct {
	// Hits counts component runs satisfied by replaying a transcript.
	Hits int
	// Misses counts component runs executed live (and recorded).
	Misses int
	// Resolved counts distinct components that ran live at least once — the
	// "re-solved" components an edit invalidated (every component on a cold
	// cache).
	Resolved int
	// NumComps is the component count of the partition.
	NumComps int
}

// AnalyzeIncremental runs the sparse interval analysis through the memo
// cache: components whose key hits the cache replay their recorded
// transcript, everything else runs live and is recorded. The result is
// bit-identical to Analyze on the same program — with an empty cache it IS
// the same computation, instrumented.
//
// Only the plain ascending solve is supported: narrowing, timeouts, step
// budgets and entry marks (the uninit checker's Indet gating) all make a
// run's behavior depend on state outside the hashed inputs, so they are
// rejected rather than silently mis-cached.
func AnalyzeIncremental(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options, cache *incr.Cache) (*Result, IncrStats, error) {
	if opt.Narrow != 0 {
		return nil, IncrStats{}, fmt.Errorf("incr: narrowing is not supported incrementally (descending sweeps are whole-graph)")
	}
	if opt.Timeout != 0 || opt.MaxSteps != 0 {
		return nil, IncrStats{}, fmt.Errorf("incr: timeouts and step budgets are not supported incrementally (truncation is schedule-dependent)")
	}
	if opt.EntryMarks != nil {
		return nil, IncrStats{}, fmt.Errorf("incr: entry marks (uninit checking) are not supported incrementally (Indet evaluation is global)")
	}
	if cache.WidenThreshold != cfg.WidenThreshold || cache.EntryWidenDelay != cfg.EntryWidenDelay {
		return nil, IncrStats{}, fmt.Errorf("incr: snapshot was recorded with widening config (%d,%d), run uses (%d,%d): re-solve cold",
			cache.WidenThreshold, cache.EntryWidenDelay, cfg.WidenThreshold, cfg.EntryWidenDelay)
	}

	namer := ir.NewStableNamer(prog)
	cache.Bind(prog, namer)
	d := newInterval(prog, pre, g, opt)
	e := d.e
	// Budget checkpoints abort instead of truncating, so the cache never
	// holds a partial run.
	e.Poll = nil
	if opt.Budget != nil {
		e.Poll = func() bool {
			opt.Budget.Checkpoint(rt.PhaseIncr)
			return true
		}
	}
	k := e.P.NumComps()
	o := &incrObserver{
		d:            d,
		cache:        cache,
		namer:        namer,
		bud:          opt.Budget,
		chain:        incr.StructHashes(prog, pre, g, namer),
		pendingReach: make([][]ir.PointID, k),
		pendingIn:    make([][]extIn, k),
		liveRun:      make([]bool, k),
	}
	d.inc = o
	e.Obs = o
	e.Run(d, prog.ProcByID(prog.Main).Entry)
	e.Flush(opt.Metrics)
	stats := IncrStats{Hits: o.hits, Misses: o.misses, NumComps: k}
	for _, live := range o.liveRun {
		if live {
			stats.Resolved++
		}
	}
	return d.result(), stats, nil
}

// extIn is one externally pushed (node, location) input, pending until the
// target component's next run hashes it.
type extIn struct {
	n dug.NodeID
	l ir.LocID
}

// incrObserver is the record/replay memo layer, observing the engine's
// component runs of an interval solve.
type incrObserver struct {
	d     *interval
	cache *incr.Cache
	namer *ir.StableNamer
	bud   *rt.Budget

	// chain[c] is the component's hash chain (see package comment); advanced
	// on every run, hit or miss.
	chain []string
	// pendingReach[c] / pendingIn[c] buffer the external effects that arrived
	// since c last ran; they are the raw material of the next input hash.
	pendingReach [][]ir.PointID
	pendingIn    [][]extIn

	// key and rec are the live-run context: the memo key and transcript
	// recorder of the running component; steps/joins/widenings are the
	// engine counters at its start.
	key                     string
	rec                     *recBuf
	steps, joins, widenings int

	hits, misses int
	liveRun      []bool
}

// Seeded buffers a reachability flip arriving from outside the component as
// an input of its next run.
func (o *incrObserver) Seeded(t ir.PointID) {
	c := o.d.e.P.Comp[t]
	o.pendingReach[c] = append(o.pendingReach[c], t)
}

// pushed is the value-push event of the domain: a change to the running
// component's own input is recorded, an external one buffered as an input of
// the target component's next run.
func (o *incrObserver) pushed(n dug.NodeID, l ir.LocID, local bool) {
	if local {
		o.rec.accs[accSlot{n, l}] = struct{}{}
		return
	}
	c := o.d.e.P.Comp[n]
	o.pendingIn[c] = append(o.pendingIn[c], extIn{n: n, l: l})
}

// Fired records a successful point firing so replay can re-run its marks.
func (o *incrObserver) Fired(n dug.NodeID) {
	o.rec.fired[o.d.e.P.LocalIdx[n]] = struct{}{}
}

// Begin is the memo protocol around one component run: hash the pending
// inputs, advance the chain, and either replay the cached transcript or
// start recording a live run.
func (o *incrObserver) Begin(c int32) bool {
	// Checkpoint per component: a breach aborts via rt.Abort before the
	// component's transcript is recorded, so the cache never holds a
	// truncated run (incremental solves never degrade — core turns the
	// abort into a BudgetError directly).
	o.bud.Checkpoint(rt.PhaseIncr)
	input := o.inputHash(c)
	o.pendingReach[c] = o.pendingReach[c][:0]
	o.pendingIn[c] = o.pendingIn[c][:0]
	key := incr.ChainNext(o.chain[c], input)
	o.chain[c] = key
	if run, ok := o.cache.Lookup(key); ok && o.replay(c, run) {
		o.hits++
		return true
	}
	o.misses++
	o.liveRun[c] = true
	e := o.d.e
	o.key = key
	o.rec = &recBuf{
		fired: map[int32]struct{}{},
		defs:  map[defSlot]struct{}{},
		accs:  map[accSlot]struct{}{},
	}
	o.steps, o.joins, o.widenings = e.Steps, e.Joins, e.Widenings
	return false
}

// inputHash digests the pending external effects of component c: the flipped
// points (by local index) and the externally pushed (node, location) entries
// with their current accumulated values. Both lists are sorted and
// deduplicated under version-portable orders (local indices and stable
// location keys), so the hash is independent of arrival order — and the
// LessEq gate on the pushing side already dropped no-op pushes identically
// in record and replay mode.
func (o *incrObserver) inputHash(c int32) string {
	p := o.d.e.P
	reach := make([]int, 0, len(o.pendingReach[c]))
	for _, t := range o.pendingReach[c] {
		reach = append(reach, int(p.LocalIdx[t]))
	}
	sort.Ints(reach)
	parts := make([]string, 0, 2+len(reach)+3*len(o.pendingIn[c]))
	parts = append(parts, "reach")
	for i, li := range reach {
		if i > 0 && li == reach[i-1] {
			continue
		}
		parts = append(parts, strconv.Itoa(li))
	}
	type inEntry struct {
		li  int32
		key string
		n   dug.NodeID
		l   ir.LocID
	}
	ins := make([]inEntry, 0, len(o.pendingIn[c]))
	for _, in := range o.pendingIn[c] {
		ins = append(ins, inEntry{li: p.LocalIdx[in.n], key: o.namer.LocKey(in.l), n: in.n, l: in.l})
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].li != ins[j].li {
			return ins[i].li < ins[j].li
		}
		return ins[i].key < ins[j].key
	})
	parts = append(parts, "in")
	for i, e := range ins {
		if i > 0 && e.li == ins[i-1].li && e.key == ins[i-1].key {
			continue
		}
		parts = append(parts, strconv.Itoa(int(e.li)), e.key, incr.ValKey(o.d.e.Acc[e.n].Get(e.l), o.namer))
	}
	return incr.HashParts(parts...)
}

// recBuf accumulates one live run's transcript: which points fired, which
// (node, def-index) slots changed their output and widening counter, and
// which internal inputs changed. Sets, not logs — only final values are
// recorded.
type recBuf struct {
	fired map[int32]struct{}
	defs  map[defSlot]struct{}
	accs  map[accSlot]struct{}
}

type defSlot struct {
	n dug.NodeID
	i int32
}

type accSlot struct {
	n dug.NodeID
	l ir.LocID
}

// End stores the transcript of the live run of c that just completed.
func (o *incrObserver) End(c int32) {
	e, b, p := o.d.e, o.rec, o.d.e.P
	o.rec = nil
	run := &incr.Run{
		Steps:     int64(e.Steps - o.steps),
		Joins:     int64(e.Joins - o.joins),
		Widenings: int64(e.Widenings - o.widenings),
	}
	run.Fired = make([]int32, 0, len(b.fired))
	for li := range b.fired {
		run.Fired = append(run.Fired, li)
	}
	slices.Sort(run.Fired)
	// Slots sort by (local index, def index) — a canonical, version-portable
	// order (def indices follow the Defs key sequence, which the structure
	// hash pins).
	defs := make([]defSlot, 0, len(b.defs))
	for s := range b.defs {
		defs = append(defs, s)
	}
	sort.Slice(defs, func(i, j int) bool {
		if p.LocalIdx[defs[i].n] != p.LocalIdx[defs[j].n] {
			return p.LocalIdx[defs[i].n] < p.LocalIdx[defs[j].n]
		}
		return defs[i].i < defs[j].i
	})
	for _, slot := range defs {
		l := e.G.Defs[slot.n][slot.i]
		run.Out = append(run.Out, incr.Delta{
			Node: p.LocalIdx[slot.n],
			Loc:  o.cache.LocIdx(l),
			Val:  o.cache.EncodeVal(e.Out[slot.n].Get(l)),
		})
		run.Counts = append(run.Counts, incr.Count{
			Node: p.LocalIdx[slot.n],
			Def:  slot.i,
			Cnt:  o.d.counts[o.d.cbase[slot.n]+slot.i],
		})
	}
	accs := make([]accSlot, 0, len(b.accs))
	for s := range b.accs {
		accs = append(accs, s)
	}
	sort.Slice(accs, func(i, j int) bool {
		if p.LocalIdx[accs[i].n] != p.LocalIdx[accs[j].n] {
			return p.LocalIdx[accs[i].n] < p.LocalIdx[accs[j].n]
		}
		return accs[i].l < accs[j].l
	})
	for _, s := range accs {
		run.Acc = append(run.Acc, incr.Delta{
			Node: p.LocalIdx[s.n],
			Loc:  o.cache.LocIdx(s.l),
			Val:  o.cache.EncodeVal(e.Acc[s.n].Get(s.l)),
		})
	}
	o.cache.Store(o.key, run)
}

// replay applies a recorded transcript. Decoding is all-or-nothing: every
// entry is resolved against the current program before any state mutates, so
// a failed decode (an entity the edit removed, a malformed value) leaves the
// state untouched and the caller falls back to a live run. Returns whether
// the transcript was applied.
func (o *incrObserver) replay(c int32, run *incr.Run) bool {
	d, e := o.d, o.d.e
	nodes := e.P.Nodes[c]
	type delta struct {
		n dug.NodeID
		l ir.LocID
		v val.Val
	}
	decode := func(ds []incr.Delta) ([]delta, bool) {
		out := make([]delta, len(ds))
		for i, x := range ds {
			if int(x.Node) >= len(nodes) {
				return nil, false
			}
			l, ok := o.cache.LocID(x.Loc)
			if !ok {
				return nil, false
			}
			v, ok := o.cache.DecodeVal(x.Val)
			if !ok {
				return nil, false
			}
			out[i] = delta{n: nodes[x.Node], l: l, v: v}
		}
		return out, true
	}
	outs, ok := decode(run.Out)
	if !ok {
		return false
	}
	accs, ok := decode(run.Acc)
	if !ok {
		return false
	}
	for _, cn := range run.Counts {
		if int(cn.Node) >= len(nodes) || int(cn.Def) >= len(e.G.Defs[nodes[cn.Node]]) {
			return false
		}
	}
	for _, li := range run.Fired {
		if int(li) >= len(nodes) {
			return false
		}
	}

	for _, cn := range run.Counts {
		n := nodes[cn.Node]
		d.counts[d.cbase[n]+cn.Def] = cn.Cnt
	}
	for _, x := range accs {
		e.Acc[x.n] = e.Acc[x.n].Set(x.l, x.v)
	}
	// Outputs: store the final value and re-emit the external pushes against
	// the current graph (internal targets are covered by the Acc deltas).
	for _, x := range outs {
		e.Out[x.n] = e.Out[x.n].Set(x.l, x.v)
		cur := e.G.Out(x.n)
		for _, succ := range cur.Seek(x.l) {
			if e.P.Comp[succ] != c {
				d.pushTo(succ, x.l, x.v)
			}
		}
	}
	// Reachability: re-run the marking rules of every fired point. Marks are
	// monotone flips and deferred appends are set-like at the wave end, so
	// replaying each fired point once reaches the live run's final mark set.
	for _, li := range run.Fired {
		if n := nodes[li]; !e.G.IsPhi(n) {
			e.ReplayReach(e.Prog.Point(ir.PointID(n)))
		}
	}
	e.Steps += int(run.Steps)
	e.Joins += int(run.Joins)
	e.Widenings += int(run.Widenings)
	return true
}
