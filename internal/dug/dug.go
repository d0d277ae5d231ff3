// Package dug builds the data-dependency graph (def-use graph) that drives
// the sparse analysis: the relation ↝ ⊆ C × L# × C of Definition 3/4,
// approximated by D̂/Û from the pre-analysis (Definition 5) and generated
// with the standard SSA algorithm as Section 5 describes.
//
// Construction is per-procedure: a call is a definition (resp. use) of the
// locations its callees may define (resp. use), the entry of a procedure
// defines every location the body uses, and the exit uses every location the
// body defines; dependencies then link call sites to entries and exits to
// return sites. The chain-bypass optimization of Section 5 splices nodes
// that neither define nor use a location out of its dependency chains, which
// the paper reports is what makes the interprocedural analysis actually
// sparse.
//
// The graph is laid out for the solver hot path: per-node D̂/Û are sorted
// dense-ID slices sharing contiguous backing arrays, and the successor
// relation is a two-level CSR index (per-node sorted location keys with an
// (offset, len) row of successors each) that workers share read-only. The
// builder itself stages dependency triples into a flat slice and sorts them
// once instead of deduplicating through per-⟨node, loc⟩ maps.
package dug

import (
	"slices"
	"sync"

	"sparrow/internal/callgraph"
	"sparrow/internal/cfg"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/ssa"
)

// NodeID identifies a node of the def-use graph: IDs below PointCount are
// control points, the rest are phi nodes.
type NodeID int32

// Phi is an SSA join node for one location, placed at a control point.
type Phi struct {
	At  ir.PointID
	Loc ir.LocID
}

// Options configures graph construction.
type Options struct {
	// Bypass enables the interprocedural chain-bypass optimization.
	Bypass bool
	// Workers is ignored: construction is sequential, and the graph does
	// not depend on it.
	Workers int
	// Metrics, when non-nil, receives the finished graph's size counters
	// (nodes, dependency triples, phis, spliced triples, ΣD̂/ΣÛ) — the
	// paper's first-class sparse-representation scalability metric.
	Metrics *metrics.Collector
	// EntryMarks, when non-nil, lists per procedure the locations its Entry
	// transfer marks possibly-uninitialized (sem.Sem.EntryMarks). Marked
	// locations are genuine entry definitions, not bypassable linkage: they
	// are kept out of the entry's pass set so the chain bypass never splices
	// the entry out of their dependency chains.
	EntryMarks func(p ir.ProcID) []ir.LocID
	// Budget is the cooperative cancellation token (internal/runtime),
	// checkpointed between build stages on the coordinating goroutine. A
	// half-built graph is useless, so a breach aborts via rt.Abort
	// (recovered at the core boundary). nil is free.
	Budget *rt.Budget
}

// Graph is the def-use graph.
type Graph struct {
	Prog       *ir.Program
	PointCount int
	Phis       []Phi
	// Defs[n]/Uses[n] are D̂/Û per node (post-bypass), sorted. The
	// per-node slices are views into two shared backing arrays.
	Defs [][]ir.LocID
	Uses [][]ir.LocID
	// Widen[n] marks per-location widening nodes: phis at loop heads and
	// entries of recursive procedures.
	Widen []bool
	// Prio[n] is the worklist priority.
	Prio []int
	// EdgeCount is the number of ⟨from, loc, to⟩ triples.
	EdgeCount int
	// SplicedEdges counts edges removed+added by the bypass optimization.
	SplicedTriples int

	// CSR successor index: node n's rows live at edgeLocs[edgeRow[n]:
	// edgeRow[n+1]] (sorted location keys); key index k's successors are
	// succs[succOff[k]:succOff[k+1]] (sorted). Shared read-only by all
	// solver workers.
	edgeLocs []ir.LocID
	edgeRow  []int32
	succOff  []int32
	succs    []NodeID

	partOnce sync.Once
	part     *Partition
}

// NumNodes returns the node count (points + phis).
func (g *Graph) NumNodes() int { return g.PointCount + len(g.Phis) }

// IsPhi reports whether n is a phi node.
func (g *Graph) IsPhi(n NodeID) bool { return int(n) >= g.PointCount }

// PhiOf returns the phi descriptor of a phi node.
func (g *Graph) PhiOf(n NodeID) Phi { return g.Phis[int(n)-g.PointCount] }

// PointOf returns the control point of a point node.
func (g *Graph) PointOf(n NodeID) ir.PointID { return ir.PointID(n) }

// Succs returns the dependency successors of n on location l (binary search
// over n's CSR row keys). Solvers iterating Defs[n] in order should prefer
// the Out cursor, which advances in lockstep instead of searching.
func (g *Graph) Succs(n NodeID, l ir.LocID) []NodeID {
	lo, hi := g.edgeRow[n], g.edgeRow[n+1]
	row := g.edgeLocs[lo:hi]
	i, j := 0, len(row)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if row[mid] < l {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i < len(row) && row[i] == l {
		k := int(lo) + i
		return g.succs[g.succOff[k]:g.succOff[k+1]]
	}
	return nil
}

// OutCursor walks one node's successor rows in ascending location order.
// Seek must be called with non-decreasing locations — exactly the order of
// Defs[n] — and amortizes to O(1) per call where Succs pays a binary search.
type OutCursor struct {
	locs  []ir.LocID
	off   []int32
	succs []NodeID
	i     int
}

// Out returns a successor cursor for n.
func (g *Graph) Out(n NodeID) OutCursor {
	lo, hi := g.edgeRow[n], g.edgeRow[n+1]
	return OutCursor{locs: g.edgeLocs[lo:hi], off: g.succOff[lo : hi+1], succs: g.succs}
}

// Seek advances to location l and returns its successor row (nil if none).
func (c *OutCursor) Seek(l ir.LocID) []NodeID {
	for c.i < len(c.locs) && c.locs[c.i] < l {
		c.i++
	}
	if c.i < len(c.locs) && c.locs[c.i] == l {
		return c.succs[c.off[c.i]:c.off[c.i+1]]
	}
	return nil
}

// Range visits every dependency triple until f returns false, in
// (from, loc, to) order.
func (g *Graph) Range(f func(from NodeID, l ir.LocID, to NodeID) bool) {
	for n := 0; n+1 < len(g.edgeRow); n++ {
		for k := g.edgeRow[n]; k < g.edgeRow[n+1]; k++ {
			l := g.edgeLocs[k]
			for _, t := range g.succs[g.succOff[k]:g.succOff[k+1]] {
				if !f(NodeID(n), l, t) {
					return
				}
			}
		}
	}
}

// AvgDefUse returns the average |D̂(c)| and |Û(c)| over statement points
// (Table 2/3's D̂(c) and Û(c) columns).
func (g *Graph) AvgDefUse() (avgD, avgU float64) {
	n := 0
	var sd, su int
	for id := 0; id < g.PointCount; id++ {
		switch g.Prog.Point(ir.PointID(id)).Cmd.(type) {
		case ir.Entry, ir.Exit, ir.Skip:
			continue
		}
		n++
		sd += len(g.Defs[id])
		su += len(g.Uses[id])
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sd) / float64(n), float64(su) / float64(n)
}

// Source abstracts what graph construction needs from an analysis design,
// so the same builder serves the non-relational (locations) and relational
// (packs) instantiations. The ID space of "locations" is whatever the
// DefsUses/summaries speak — ir.LocID for intervals, pack IDs for octagons.
type Source struct {
	Prog     *ir.Program
	CG       *callgraph.Graph
	Callees  func(ir.PointID) []ir.ProcID
	RetSites [][]ir.PointID
	// DefsUsesAppend appends the members of the command-local D̂(c)/Û(c)
	// to defs/uses (possibly with duplicates — the builder deduplicates)
	// and returns the extended slices.
	DefsUsesAppend func(pt *ir.Point, defs, uses []ir.LocID) ([]ir.LocID, []ir.LocID)
	// AlwaysKills returns D_always(c); required only by BuildDefUseChains.
	AlwaysKills func(pt *ir.Point) sem.LocSet
	// DefSummary/UseSummary are the transitive per-procedure summaries as
	// sorted LocID slices.
	DefSummary [][]ir.LocID
	UseSummary [][]ir.LocID
	// RetChan maps a procedure to its return-channel ID (ir.None if void).
	RetChan func(p ir.ProcID) ir.LocID
	// EntryMarks mirrors Options.EntryMarks in the Source's own ID space;
	// Build copies it from the options for the interval instantiation.
	EntryMarks func(p ir.ProcID) []ir.LocID
}

// IntervalSource adapts the non-relational pre-analysis to a Source.
func IntervalSource(prog *ir.Program, pre *prean.Result) *Source {
	s := &sem.Sem{Prog: prog, Callees: pre.CalleesOf, InCycle: pre.CG.InCycle}
	return &Source{
		Prog:     prog,
		CG:       pre.CG,
		Callees:  pre.CalleesOf,
		RetSites: pre.RetSites,
		DefsUsesAppend: func(pt *ir.Point, defs, uses []ir.LocID) ([]ir.LocID, []ir.LocID) {
			return s.DefsUsesAppend(pt, pre.Mem, defs, uses)
		},
		AlwaysKills: func(pt *ir.Point) sem.LocSet {
			return s.AlwaysKills(pt, pre.Mem)
		},
		DefSummary: pre.DefSummary,
		UseSummary: pre.UseSummary,
		RetChan:    func(p ir.ProcID) ir.LocID { return prog.ProcByID(p).RetLoc },
	}
}

// triple is one staged dependency edge ⟨from, loc, to⟩.
type triple struct {
	from NodeID
	loc  ir.LocID
	to   NodeID
}

// adjRows is one node's adjacency during construction: parallel sorted
// location keys and neighbor rows, built once from the staged triples. The
// bypass optimization mutates row contents but (invariant) never needs a
// new location key — a splice only reconnects nodes that already carry
// edges on the spliced location.
type adjRows struct {
	locs []ir.LocID
	rows [][]NodeID
}

// find returns the index of l in the sorted key array, or -1.
func (a *adjRows) find(l ir.LocID) int {
	lo, hi := 0, len(a.locs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.locs[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.locs) && a.locs[lo] == l {
		return lo
	}
	return -1
}

// arena hands out stable []ir.LocID views backed by large shared blocks, so
// the three small per-node access sets don't cost one allocation each.
type arena struct{ buf []ir.LocID }

func (a *arena) place(s []ir.LocID) []ir.LocID {
	if len(s) == 0 {
		return nil
	}
	if len(a.buf)+len(s) > cap(a.buf) {
		n := 1 << 14
		if len(s) > n {
			n = len(s)
		}
		a.buf = make([]ir.LocID, 0, n)
	}
	off := len(a.buf)
	a.buf = append(a.buf, s...)
	return a.buf[off:len(a.buf):len(a.buf)]
}

// maxSpliceFanout bounds |preds|×|succs| of one bypass splice to avoid edge
// blowup.
const maxSpliceFanout = 256

// builder carries construction state.
type builder struct {
	prog *ir.Program
	src  *Source

	g *Graph
	// defs/uses/pass are the per-node D̂/Û/linkage-only sets as sorted
	// deduplicated slices (pass members are the bypass candidates). The
	// bypass optimization shrinks them in place.
	defs [][]ir.LocID
	uses [][]ir.LocID
	pass [][]ir.LocID
	// triples stages dependency edges flat, duplicates included; one sort
	// in buildAdjacency replaces the per-edge map dedup of earlier layouts.
	triples []triple
	out, in []adjRows
}

// Build constructs the def-use graph of prog from the non-relational
// pre-analysis result.
func Build(prog *ir.Program, pre *prean.Result, opt Options) *Graph {
	src := IntervalSource(prog, pre)
	src.EntryMarks = opt.EntryMarks
	return BuildFrom(src, opt)
}

// BuildFrom constructs the def-use graph from an arbitrary Source.
func BuildFrom(src *Source, opt Options) *Graph {
	prog := src.Prog
	b := &builder{
		prog: prog,
		src:  src,
		g:    &Graph{Prog: prog, PointCount: len(prog.Points)},
	}
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.initNodes()
	opt.Budget.Checkpoint(rt.PhaseDUG)
	info := cfg.Compute(prog, src.CG, src.Callees)
	// Point nodes inherit the solver widening points (loop heads, recursive
	// entries and return sites); phis get theirs during placement. Widening
	// nodes are also pinned by the bypass optimization so that every
	// dependency cycle keeps a widening point.
	for i := range prog.Points {
		if info.Widen[i] {
			b.g.Widen[i] = true
		}
	}
	// One SSA pass per procedure (dominators, phi placement, renaming), in
	// procedure order, which numbers the phi nodes.
	for _, pr := range prog.Procs {
		b.buildProc(pr)
	}
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.linkInterproc()
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.buildAdjacency()
	opt.Budget.Checkpoint(rt.PhaseDUG)
	if opt.Bypass {
		b.bypass()
	}
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.finalize(info)
	b.g.flushMetrics(opt.Metrics)
	return b.g
}

// flushMetrics records the finished graph's size counters.
func (g *Graph) flushMetrics(col *metrics.Collector) {
	if col == nil {
		return
	}
	col.Add(metrics.CtrDUGNodes, int64(g.NumNodes()))
	col.Add(metrics.CtrDUGEdges, int64(g.EdgeCount))
	col.Add(metrics.CtrDUGPhis, int64(len(g.Phis)))
	col.Add(metrics.CtrDUGSpliced, int64(g.SplicedTriples))
	var defs, uses int64
	for n := range g.Defs {
		defs += int64(len(g.Defs[n]))
		uses += int64(len(g.Uses[n]))
	}
	col.Add(metrics.CtrDUGDefs, defs)
	col.Add(metrics.CtrDUGUses, uses)
}

// ensureNode grows the per-node tables to cover node n.
func (b *builder) ensureNode(n NodeID) {
	for len(b.defs) <= int(n) {
		b.defs = append(b.defs, nil)
		b.uses = append(b.uses, nil)
		b.pass = append(b.pass, nil)
		b.g.Widen = append(b.g.Widen, false)
	}
}

// initScratch carries the reusable buffers of initNode.
type initScratch struct {
	ownD, ownU []ir.LocID // command-local D̂/Û
	d, u, p    []ir.LocID // accumulated sets, duplicates allowed
	ret        []ir.LocID // return channels of a RetBind's callees
	ar         arena
}

// initNodes computes the per-point D̂/Û including interprocedural linkage
// sets, and records which memberships are linkage-only (bypassable).
func (b *builder) initNodes() {
	b.ensureNode(NodeID(len(b.prog.Points) - 1))
	var sc initScratch
	for _, pt := range b.prog.Points {
		b.initNode(pt, &sc)
	}
}

// initNode fills the D̂/Û/pass tables of one point.
func (b *builder) initNode(pt *ir.Point, sc *initScratch) {
	n := NodeID(pt.ID)
	ownD, ownU := b.src.DefsUsesAppend(pt, sc.ownD[:0], sc.ownU[:0])
	ownD, ownU = ir.DedupLocs(ownD), ir.DedupLocs(ownU)
	sc.ownD, sc.ownU = ownD, ownU
	d := append(sc.d[:0], ownD...)
	u := append(sc.u[:0], ownU...)
	p := sc.p[:0]
	// Interprocedural linkage (Section 5): a call uses everything its
	// callees access — including the locations they may (weakly or
	// spuriously) define, so that stale caller values flow *through*
	// the callee and are killed by its strong definitions rather than
	// rejoined at the return site. Entries define what flows in, exits
	// use what the body defined, return sites define the callee-final
	// values they receive from the exit.
	switch c := pt.Cmd.(type) {
	case ir.Call:
		// The call both uses and defines (relays) everything its
		// callees access: its definition values are the identity on the
		// caller's reaching values (plus the formal bindings), carried
		// into the callee entry by the call→entry edges.
		for _, pr := range b.src.Callees(pt.ID) {
			for _, summ := range [2][]ir.LocID{b.src.UseSummary[pr], b.src.DefSummary[pr]} {
				for _, l := range summ {
					if !ir.LocsContain(ownU, l) && !ir.LocsContain(ownD, l) {
						p = append(p, l)
					}
					u = append(u, l)
					d = append(d, l)
				}
			}
		}
	case ir.Entry:
		pr := b.prog.ProcByID(pt.Proc)
		if pr.Entry == pt.ID {
			for _, summ := range [2][]ir.LocID{b.src.UseSummary[pt.Proc], b.src.DefSummary[pt.Proc]} {
				d = append(d, summ...)
				p = append(p, summ...)
			}
			if b.src.EntryMarks != nil {
				// Marked locations are genuine definitions of the entry
				// transfer (possibly-uninitialized seeds), not relayed
				// linkage: the bypass must not splice the entry out of
				// their chains, so they leave the pass set.
				if marks := b.src.EntryMarks(pt.Proc); len(marks) > 0 {
					p = removeLocs(ir.DedupLocs(p), marks)
				}
			}
		}
	case ir.Exit:
		// The exit both uses and defines (relays) everything the body
		// accessed — not just what it defined. Access-based localization
		// returns the whole accessed slice of the callee memory to the
		// return sites, so a used-but-never-defined location round-trips
		// through the callee and is joined across its call sites; the
		// sparse graph must reproduce exactly that flow, or the sparse
		// fixpoint comes out strictly tighter than the baseline at
		// multi-site callees (breaking Lemma 2 fidelity).
		for _, summ := range [2][]ir.LocID{b.src.UseSummary[pt.Proc], b.src.DefSummary[pt.Proc]} {
			for _, l := range summ {
				if !ir.LocsContain(ownU, l) {
					p = append(p, l)
				}
				u = append(u, l)
				d = append(d, l)
			}
		}
		if rl := b.src.RetChan(pt.Proc); rl != ir.None {
			u = append(u, rl)
			d = append(d, rl)
		}
	case ir.RetBind:
		// Mirror of the exit: the return site defines everything any
		// callee accessed (the localized return memory).
		rets := sc.ret[:0]
		for _, pr := range b.src.Callees(c.CallPt) {
			rl := b.src.RetChan(pr)
			for _, summ := range [2][]ir.LocID{b.src.UseSummary[pr], b.src.DefSummary[pr]} {
				for _, l := range summ {
					if l != rl && !ir.LocsContain(ownD, l) && !ir.LocsContain(ownU, l) {
						p = append(p, l)
					}
					d = append(d, l)
				}
			}
			if rl != ir.None {
				rets = append(rets, rl)
			}
		}
		sc.ret = rets
		// The return channel must arrive exclusively over the
		// exit→return-site edge; caller-side SSA wiring of it would
		// join stale pre-call values into the delivered result.
		if len(rets) > 0 {
			u = removeLocs(ir.DedupLocs(u), ir.DedupLocs(rets))
		}
	}
	d, u, p = ir.DedupLocs(d), ir.DedupLocs(u), ir.DedupLocs(p)
	b.defs[n] = sc.ar.place(d)
	b.uses[n] = sc.ar.place(u)
	b.pass[n] = sc.ar.place(p)
	sc.d, sc.u, sc.p = d, u, p
}

// removeLocs deletes the members of sorted rem from sorted s in place.
func removeLocs(s, rem []ir.LocID) []ir.LocID {
	if len(rem) == 0 {
		return s
	}
	out := s[:0]
	j := 0
	for _, l := range s {
		for j < len(rem) && rem[j] < l {
			j++
		}
		if j < len(rem) && rem[j] == l {
			continue
		}
		out = append(out, l)
	}
	return out
}

// removeLoc deletes l from the sorted set s in place.
func removeLoc(s []ir.LocID, l ir.LocID) []ir.LocID {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(s) || s[lo] != l {
		return s
	}
	copy(s[lo:], s[lo+1:])
	return s[:len(s)-1]
}

// buildProc runs per-location SSA over one procedure: phi placement at
// iterated dominance frontiers of definition sites, then a single renaming
// walk over the dominator tree adding def→use dependency triples. Phi node
// IDs are assigned in placement order.
func (b *builder) buildProc(pr *ir.Proc) {
	if len(pr.Points) == 0 || pr.Entry == ir.None {
		return
	}
	dom := ssa.Compute(b.prog, pr)
	heads := cfg.LoopHeads(b.prog, pr)
	if b.src.CG.InCycle(pr.ID) {
		b.g.Widen[pr.Entry] = true
	}

	// Collect tracked locations and their definition sites (RPO indices).
	defSites := map[ir.LocID][]int{}
	for i, id := range dom.Order {
		for _, l := range b.defs[id] {
			defSites[l] = append(defSites[l], i)
		}
	}
	// Deterministic iteration order over locations.
	locs := make([]ir.LocID, 0, len(defSites))
	for l := range defSites {
		locs = append(locs, l)
	}
	slices.Sort(locs)

	// Phi placement.
	phiAt := make([]map[ir.LocID]NodeID, len(dom.Order))
	for _, l := range locs {
		for _, i := range dom.IteratedFrontier(defSites[l]) {
			pid := dom.Order[i]
			n := NodeID(b.g.NumNodes())
			b.g.Phis = append(b.g.Phis, Phi{At: pid, Loc: l})
			b.ensureNode(n)
			// One allocation carries both singleton sets; bypass never
			// touches phi sets (their pass set is empty), but keep them
			// separable.
			s := []ir.LocID{l, l}
			b.defs[n] = s[:1:1]
			b.uses[n] = s[1:2:2]
			b.g.Widen[n] = heads[pid]
			if phiAt[i] == nil {
				phiAt[i] = map[ir.LocID]NodeID{}
			}
			phiAt[i][l] = n
		}
	}

	// Renaming: one preorder walk of the dominator tree with a stack per
	// location.
	stacks := map[ir.LocID][]NodeID{}
	top := func(l ir.LocID) (NodeID, bool) {
		s := stacks[l]
		if len(s) == 0 {
			return 0, false
		}
		return s[len(s)-1], true
	}
	var visit func(i int)
	visit = func(i int) {
		pid := dom.Order[i]
		n := NodeID(pid)
		var pushed []ir.LocID
		// Phis first: they join the incoming paths and dominate the point's
		// own use/def.
		phiLocs := make([]ir.LocID, 0, len(phiAt[i]))
		for l := range phiAt[i] {
			phiLocs = append(phiLocs, l)
		}
		slices.Sort(phiLocs)
		for _, l := range phiLocs {
			stacks[l] = append(stacks[l], phiAt[i][l])
			pushed = append(pushed, l)
		}
		// Uses read the value reaching the point (after phis).
		for _, l := range b.uses[n] {
			if d, ok := top(l); ok {
				b.addEdge(d, l, n)
			}
		}
		// Defs kill for dominated points. (Weak definitions are also uses,
		// so their incoming value still flows — Definition 3's treatment of
		// may-kills.)
		for _, l := range b.defs[n] {
			stacks[l] = append(stacks[l], n)
			pushed = append(pushed, l)
		}
		// Feed phi inputs of CFG successors.
		for _, s := range b.prog.Point(pid).Succs {
			si, ok := dom.Index[s]
			if !ok {
				continue
			}
			for l, ph := range phiAt[si] {
				if d, ok := top(l); ok {
					b.addEdge(d, l, ph)
				}
			}
		}
		for _, c := range dom.Children[i] {
			visit(c)
		}
		for _, l := range pushed {
			stacks[l] = stacks[l][:len(stacks[l])-1]
		}
	}
	visit(0)
}

// addEdge stages the dependency triple ⟨from, l, to⟩. Duplicates are fine —
// the staged triples are sorted and deduplicated once when the adjacency
// rows are built. Self-edges are kept: SSA renaming never produces them, but
// the bypass optimization can collapse a spurious interprocedural feedback
// cycle (callee effect → return site → another call site → callee) onto a
// single transfer node, and the solver must keep iterating that cycle
// exactly as the dense analysis does.
func (b *builder) addEdge(from NodeID, l ir.LocID, to NodeID) {
	b.triples = append(b.triples, triple{from: from, loc: l, to: to})
}

func containsNode(s []NodeID, n NodeID) bool {
	for _, m := range s {
		if m == n {
			return true
		}
	}
	return false
}

// removeNode deletes the first occurrence of n (order is irrelevant: the
// rows are sorted in finalize).
func removeNode(s []NodeID, n NodeID) []NodeID {
	for i, m := range s {
		if m == n {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// linkInterproc adds the call→entry and exit→return-site dependencies.
func (b *builder) linkInterproc() {
	// retBindOf maps a call point to its return-site point.
	retBindOf := map[ir.PointID]ir.PointID{}
	for _, pt := range b.prog.Points {
		if rb, ok := pt.Cmd.(ir.RetBind); ok {
			retBindOf[rb.CallPt] = pt.ID
		}
	}
	var retChans, accAll []ir.LocID
	for _, pt := range b.prog.Points {
		if _, ok := pt.Cmd.(ir.Call); !ok {
			continue
		}
		callees := b.src.Callees(pt.ID)
		for _, p := range callees {
			callee := b.prog.ProcByID(p)
			for _, l := range b.src.UseSummary[p] {
				b.addEdge(NodeID(pt.ID), l, NodeID(callee.Entry))
			}
			// Def-summary locations flow in too: stale caller values pass
			// through the callee and are killed by its strong definitions.
			for _, l := range b.src.DefSummary[p] {
				b.addEdge(NodeID(pt.ID), l, NodeID(callee.Entry))
			}
		}
		// An indirect call can have callees with different access sets. The
		// return site defines every location any callee may access, and the
		// caller's SSA makes that definition shadow the pre-call value — so
		// for a location some callee does NOT access, the pre-call value
		// must flow call→return-site directly: along that callee's path the
		// stale value survives (access-based localization bypasses it
		// around that callee), and no exit edge delivers it. Ret channels
		// are excluded — they arrive exclusively over exit→return-site
		// edges (see initNode).
		if rs, ok := retBindOf[pt.ID]; ok && len(callees) > 1 {
			retChans, accAll = retChans[:0], accAll[:0]
			for _, p := range callees {
				if rl := b.src.RetChan(p); rl != ir.None {
					retChans = append(retChans, rl)
				}
				accAll = append(accAll, b.src.UseSummary[p]...)
				accAll = append(accAll, b.src.DefSummary[p]...)
			}
			retChans = ir.DedupLocs(retChans)
			accAll = ir.DedupLocs(accAll)
			for _, l := range accAll {
				if ir.LocsContain(retChans, l) {
					continue
				}
				for _, p := range callees {
					if !ir.LocsContain(b.src.UseSummary[p], l) && !ir.LocsContain(b.src.DefSummary[p], l) {
						b.addEdge(NodeID(pt.ID), l, NodeID(rs))
						break
					}
				}
			}
		}
	}
	for p, sites := range b.src.RetSites {
		callee := b.prog.Procs[p]
		exit := NodeID(callee.Exit)
		for _, rs := range sites {
			for _, l := range b.src.UseSummary[p] {
				b.addEdge(exit, l, NodeID(rs))
			}
			for _, l := range b.src.DefSummary[p] {
				b.addEdge(exit, l, NodeID(rs))
			}
			if rl := b.src.RetChan(ir.ProcID(p)); rl != ir.None {
				b.addEdge(exit, rl, NodeID(rs))
			}
		}
	}
}

// buildAdjacency turns the staged triples into per-node adjacency rows:
// counting-sort by from-node, sort each node's group by packed (loc, to)
// keys, deduplicate in place, and carve the out/in rows from exact-size
// backing arrays. This single sort replaces the per-edge map lookups that
// used to dominate the build.
func (b *builder) buildAdjacency() {
	n := b.g.NumNodes()
	ts := b.triples
	b.triples = nil
	b.out = make([]adjRows, n)
	b.in = make([]adjRows, n)

	group := func(ts []triple, key func(t triple) NodeID) (grouped []triple, start []int32) {
		start = make([]int32, n+1)
		for _, t := range ts {
			start[key(t)+1]++
		}
		for i := 0; i < n; i++ {
			start[i+1] += start[i]
		}
		pos := make([]int32, n)
		copy(pos, start[:n])
		grouped = make([]triple, len(ts))
		for _, t := range ts {
			grouped[pos[key(t)]] = t
			pos[key(t)]++
		}
		return grouped, start
	}

	// Out direction, with dedup.
	grouped, start := group(ts, func(t triple) NodeID { return t.from })
	var keys []uint64
	glen := make([]int32, n)
	nLocs, nEdges := 0, 0
	for i := 0; i < n; i++ {
		g := grouped[start[i]:start[i+1]]
		if len(g) == 0 {
			continue
		}
		keys = keys[:0]
		for _, t := range g {
			keys = append(keys, uint64(uint32(t.loc))<<32|uint64(uint32(t.to)))
		}
		slices.Sort(keys)
		m := 0
		prevLoc := ir.LocID(-1)
		for j, k := range keys {
			if j > 0 && k == keys[j-1] {
				continue
			}
			l := ir.LocID(k >> 32)
			g[m] = triple{from: NodeID(i), loc: l, to: NodeID(uint32(k))}
			if l != prevLoc {
				nLocs++
				prevLoc = l
			}
			m++
		}
		glen[i] = int32(m)
		nEdges += m
	}
	b.emitRows(b.out, grouped, start, glen, nLocs, nEdges, false)

	// Compact the deduplicated edge set (reusing the staging array) and
	// build the in direction; no further dedup needed.
	ded := ts[:0]
	for i := 0; i < n; i++ {
		ded = append(ded, grouped[start[i]:start[i]+glen[i]]...)
	}
	grouped, start = group(ded, func(t triple) NodeID { return t.to })
	nLocs = 0
	for i := 0; i < n; i++ {
		g := grouped[start[i]:start[i+1]]
		if len(g) == 0 {
			glen[i] = 0
			continue
		}
		keys = keys[:0]
		for _, t := range g {
			keys = append(keys, uint64(uint32(t.loc))<<32|uint64(uint32(t.from)))
		}
		slices.Sort(keys)
		prevLoc := ir.LocID(-1)
		for j, k := range keys {
			l := ir.LocID(k >> 32)
			g[j] = triple{from: NodeID(uint32(k)), loc: l, to: NodeID(i)}
			if l != prevLoc {
				nLocs++
				prevLoc = l
			}
		}
		glen[i] = int32(len(g))
	}
	b.emitRows(b.in, grouped, start, glen, nLocs, nEdges, true)
}

// emitRows carves adjacency rows out of exact-size backing arrays from
// grouped (per-node, loc-sorted, deduplicated) triples. The backing never
// grows, so the row views stay valid; rows are full-cap'd so a bypass append
// copies out instead of clobbering a neighbor.
func (b *builder) emitRows(dst []adjRows, grouped []triple, start, glen []int32, nLocs, nEdges int, useFrom bool) {
	locsBack := make([]ir.LocID, 0, nLocs)
	rowsBack := make([][]NodeID, 0, nLocs)
	nodeBack := make([]NodeID, 0, nEdges)
	for i := range dst {
		g := grouped[start[i] : start[i]+glen[i]]
		if len(g) == 0 {
			continue
		}
		locOff, rowOff := len(locsBack), len(rowsBack)
		rowStart := len(nodeBack)
		for j, t := range g {
			if j == 0 || t.loc != g[j-1].loc {
				if j > 0 {
					rowsBack = append(rowsBack, nodeBack[rowStart:len(nodeBack):len(nodeBack)])
				}
				rowStart = len(nodeBack)
				locsBack = append(locsBack, t.loc)
			}
			if useFrom {
				nodeBack = append(nodeBack, t.from)
			} else {
				nodeBack = append(nodeBack, t.to)
			}
		}
		rowsBack = append(rowsBack, nodeBack[rowStart:len(nodeBack):len(nodeBack)])
		dst[i] = adjRows{
			locs: locsBack[locOff:len(locsBack):len(locsBack)],
			rows: rowsBack[rowOff:len(rowsBack):len(rowsBack)],
		}
	}
}

// bypass applies the Section 5 optimization until convergence: a node that
// merely relays a location l (it is in l's dependency chains through
// linkage only, neither defining nor using l itself) is spliced out,
// connecting its predecessors directly to its successors.
func (b *builder) bypass() {
	work := make([]NodeID, 0, len(b.pass))
	inWork := make([]bool, len(b.pass))
	for n := range b.pass {
		if len(b.pass[n]) > 0 {
			work = append(work, NodeID(n))
			inWork[n] = true
		}
	}
	rootProc := b.prog.ProcByID(b.prog.Main)
	var snap []ir.LocID
	var preds, succs []NodeID
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[n] = false
		if b.g.Widen[n] {
			continue // widening nodes must stay on their cycles
		}
		if n == NodeID(rootProc.Exit) {
			continue // the root exit stays observable (final program state)
		}
		if n == NodeID(rootProc.Entry) {
			continue // the root entry injects the initial state
		}
		snap = append(snap[:0], b.pass[n]...)
		for _, l := range snap {
			preds, succs = preds[:0], succs[:0]
			inRow, outRow := b.in[n].find(l), b.out[n].find(l)
			if inRow >= 0 {
				for _, p := range b.in[n].rows[inRow] {
					if p != n {
						preds = append(preds, p)
					}
				}
			}
			if outRow >= 0 {
				for _, s := range b.out[n].rows[outRow] {
					if s != n {
						succs = append(succs, s)
					}
				}
			}
			if len(preds)*len(succs) > maxSpliceFanout {
				continue
			}
			// Remove the relay (including any self-loop, which is an
			// identity cycle at a pure relay) and reconnect; a pred that is
			// also a succ becomes a self-edge carrying the collapsed cycle.
			// Each neighbor's row is found once and both edited in place:
			// drop n, then merge in the opposite side (out[p][l] ∋ s iff
			// in[s][l] ∋ p, so the paired dedup checks agree).
			for _, p := range preds {
				a := &b.out[p]
				ri := a.find(l)
				row := removeNode(a.rows[ri], n)
				for _, s := range succs {
					if !containsNode(row, s) {
						row = append(row, s)
					}
				}
				a.rows[ri] = row
			}
			for _, s := range succs {
				a := &b.in[s]
				ri := a.find(l)
				row := removeNode(a.rows[ri], n)
				for _, p := range preds {
					if !containsNode(row, p) {
						row = append(row, p)
					}
				}
				a.rows[ri] = row
			}
			// The relay's own rows are now fully dead (all preds, succs, and
			// any self-loop removed).
			if inRow >= 0 {
				b.in[n].rows[inRow] = b.in[n].rows[inRow][:0]
			}
			if outRow >= 0 {
				b.out[n].rows[outRow] = b.out[n].rows[outRow][:0]
			}
			requeue := func(m NodeID) {
				if !inWork[m] && ir.LocsContain(b.pass[m], l) {
					work = append(work, m)
					inWork[m] = true
				}
			}
			if len(preds) > 0 {
				for _, s := range succs {
					requeue(s)
				}
			}
			for _, p := range preds {
				requeue(p)
			}
			b.g.SplicedTriples += len(preds) + len(succs)
			b.pass[n] = removeLoc(b.pass[n], l)
			b.defs[n] = removeLoc(b.defs[n], l)
			b.uses[n] = removeLoc(b.uses[n], l)
		}
	}
}

// finalize compacts the access sets into shared backing arrays and builds
// the CSR successor index.
func (b *builder) finalize(info *cfg.Info) {
	g := b.g
	n := g.NumNodes()
	g.Defs = make([][]ir.LocID, n)
	g.Uses = make([][]ir.LocID, n)
	g.Prio = make([]int, n)
	var totD, totU int
	for i := 0; i < n; i++ {
		totD += len(b.defs[i])
		totU += len(b.uses[i])
	}
	defBack := make([]ir.LocID, 0, totD)
	useBack := make([]ir.LocID, 0, totU)
	for i := 0; i < n; i++ {
		if len(b.defs[i]) > 0 {
			off := len(defBack)
			defBack = append(defBack, b.defs[i]...)
			g.Defs[i] = defBack[off:len(defBack):len(defBack)]
		}
		if len(b.uses[i]) > 0 {
			off := len(useBack)
			useBack = append(useBack, b.uses[i]...)
			g.Uses[i] = useBack[off:len(useBack):len(useBack)]
		}
		if i < g.PointCount {
			g.Prio[i] = info.Prio[i] * 2
		} else {
			g.Prio[i] = info.Prio[g.Phis[i-g.PointCount].At]*2 - 1
		}
	}
	var nLocs, nEdges int
	for i := range b.out {
		for ri := range b.out[i].rows {
			if len(b.out[i].rows[ri]) > 0 {
				nLocs++
				nEdges += len(b.out[i].rows[ri])
			}
		}
	}
	g.edgeLocs = make([]ir.LocID, 0, nLocs)
	g.edgeRow = make([]int32, n+1)
	g.succOff = make([]int32, 0, nLocs+1)
	g.succs = make([]NodeID, 0, nEdges)
	for i := 0; i < n; i++ {
		g.edgeRow[i] = int32(len(g.edgeLocs))
		a := &b.out[i]
		for ri, l := range a.locs {
			row := a.rows[ri]
			if len(row) == 0 {
				continue
			}
			slices.Sort(row)
			g.edgeLocs = append(g.edgeLocs, l)
			g.succOff = append(g.succOff, int32(len(g.succs)))
			g.succs = append(g.succs, row...)
			g.EdgeCount += len(row)
		}
	}
	g.edgeRow[n] = int32(len(g.edgeLocs))
	g.succOff = append(g.succOff, int32(len(g.succs)))
}
