// Package cfg computes control-flow-graph orderings shared by the fixpoint
// solvers: per-procedure reverse postorder (iteration priority), back-edge
// targets (intraprocedural widening points), and the global widening-point
// set that also cuts recursion cycles at entries of procedures in call-graph
// SCCs.
package cfg

import (
	"sparrow/internal/callgraph"
	"sparrow/internal/ir"
)

// RPO returns the points of proc reachable from its entry in reverse
// postorder.
func RPO(prog *ir.Program, proc *ir.Proc) []ir.PointID {
	var post []ir.PointID
	visited := map[ir.PointID]bool{}
	type frame struct {
		id ir.PointID
		si int
	}
	stack := []frame{{id: proc.Entry}}
	visited[proc.Entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := prog.Point(f.id).Succs
		if f.si < len(succs) {
			s := succs[f.si]
			f.si++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{id: s})
			}
			continue
		}
		post = append(post, f.id)
		stack = stack[:len(stack)-1]
	}
	// reverse
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// LoopHeads returns the targets of back edges in proc's CFG (edges u→v where
// v is an ancestor of u in the DFS tree), the conventional widening points.
func LoopHeads(prog *ir.Program, proc *ir.Proc) map[ir.PointID]bool {
	heads := map[ir.PointID]bool{}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[ir.PointID]int{}
	type frame struct {
		id ir.PointID
		si int
	}
	stack := []frame{{id: proc.Entry}}
	color[proc.Entry] = gray
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := prog.Point(f.id).Succs
		if f.si < len(succs) {
			s := succs[f.si]
			f.si++
			switch color[s] {
			case white:
				color[s] = gray
				stack = append(stack, frame{id: s})
			case gray:
				heads[s] = true
			}
			continue
		}
		color[f.id] = black
		stack = stack[:len(stack)-1]
	}
	return heads
}

// The widening safety valve, shared by every solver. Beyond the structural
// widening points (Info.Widen), a solver widens at any point or definition
// whose value changed more than WidenThreshold times, which guarantees
// termination whatever the iteration order. Procedure entries widen already
// after EntryWidenDelay changes: entries of procedures with several call
// sites sit on spurious interprocedural cycles (exit → return site →
// another call → entry), which ascend unboundedly when a callee's effect
// feeds back; the small delay keeps precision for plain multi-site argument
// joins while cutting those cycles. Incremental snapshots record both
// values (internal/incr).
const (
	WidenThreshold  = 40
	EntryWidenDelay = 4
)

// ForceWiden reports whether the safety valve forces widening after a
// value changed updates times, at a procedure entry when entry is set.
// Each solver counts updates in its own unit: per point (dense), per node
// and definition (interval sparse) or per node (octagon sparse).
func ForceWiden(updates int, entry bool) bool {
	return updates > WidenThreshold || entry && updates > EntryWidenDelay
}

// Info bundles the global solver orderings for a program.
type Info struct {
	// Prio[pt] is the dequeue priority (callees first, then reverse
	// postorder within each procedure).
	Prio []int
	// Widen[pt] marks widening points: intraprocedural loop heads, entries
	// of procedures involved in call-graph cycles, and return sites of
	// recursive calls (exit→return-site value cycles never cross an entry,
	// so they need their own widening point).
	Widen []bool
	// rpo caches per-proc reverse postorder.
	rpo [][]ir.PointID
}

// Compute builds the orderings for prog given its call graph and resolved
// callees.
func Compute(prog *ir.Program, cg *callgraph.Graph, callees func(ir.PointID) []ir.ProcID) *Info {
	inf := &Info{
		Prio:  make([]int, len(prog.Points)),
		Widen: make([]bool, len(prog.Points)),
		rpo:   make([][]ir.PointID, len(prog.Procs)),
	}
	for i := range inf.Prio {
		inf.Prio[i] = 1 << 30 // unreachable points go last
	}
	next := 0
	for _, p := range cg.BottomUp() {
		proc := prog.ProcByID(p)
		order := RPO(prog, proc)
		inf.rpo[p] = order
		for _, id := range order {
			inf.Prio[id] = next
			next++
		}
		for h := range LoopHeads(prog, proc) {
			inf.Widen[h] = true
		}
		if cg.InCycle(p) {
			inf.Widen[proc.Entry] = true
		}
		for _, cp := range proc.Calls {
			for _, q := range callees(cp) {
				if cg.SCCOf[q] == cg.SCCOf[p] {
					// Recursive call: widen at its return site(s).
					for _, s := range prog.Point(cp).Succs {
						inf.Widen[s] = true
					}
					break
				}
			}
		}
	}
	return inf
}

// ProcRPO returns the cached reverse postorder of proc.
func (inf *Info) ProcRPO(p ir.ProcID) []ir.PointID { return inf.rpo[p] }
