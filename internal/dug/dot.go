// Graphviz export of the def-use graph, for inspecting the data
// dependencies the sparse analysis runs over (cmd/sparrow -dump-dug).

package dug

import (
	"fmt"
	"io"
	"slices"

	"sparrow/internal/ir"
)

// WriteDot renders the graph in Graphviz dot syntax. Nodes are grouped per
// procedure; phi nodes are drawn as diamonds; edges are labeled with their
// location. maxEdges bounds the output for big graphs (0 = unlimited).
func (g *Graph) WriteDot(w io.Writer, maxEdges int) error {
	bw := &errWriter{w: w}
	bw.printf("digraph dug {\n")
	bw.printf("  node [fontname=\"monospace\", fontsize=9];\n")
	bw.printf("  edge [fontname=\"monospace\", fontsize=8];\n")

	// Emit nodes that participate in at least one edge.
	used := map[NodeID]bool{}
	g.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
		used[from] = true
		used[to] = true
		return true
	})
	var nodes []NodeID
	for n := range used {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)

	byProc := map[ir.ProcID][]NodeID{}
	for _, n := range nodes {
		var proc ir.ProcID
		if g.IsPhi(n) {
			proc = g.Prog.Point(g.PhiOf(n).At).Proc
		} else {
			proc = g.Prog.Point(ir.PointID(n)).Proc
		}
		byProc[proc] = append(byProc[proc], n)
	}
	var procs []ir.ProcID
	for p := range byProc {
		procs = append(procs, p)
	}
	slices.Sort(procs)

	for _, p := range procs {
		bw.printf("  subgraph cluster_%d {\n", p)
		bw.printf("    label=%q;\n", g.Prog.ProcByID(p).Name)
		for _, n := range byProc[p] {
			if g.IsPhi(n) {
				ph := g.PhiOf(n)
				bw.printf("    n%d [shape=diamond, label=%q];\n",
					n, fmt.Sprintf("φ(%s)@%d", g.Prog.Locs.String(ph.Loc), ph.At))
			} else {
				pt := g.Prog.Point(ir.PointID(n))
				label := fmt.Sprintf("%d: %s", n, g.Prog.CmdString(pt.Cmd))
				if len(label) > 48 {
					label = label[:45] + "..."
				}
				shape := "box"
				if g.Widen[n] {
					shape = "doubleoctagon"
				}
				bw.printf("    n%d [shape=%s, label=%q];\n", n, shape, label)
			}
		}
		bw.printf("  }\n")
	}

	count := 0
	g.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
		if maxEdges > 0 && count >= maxEdges {
			return false
		}
		count++
		bw.printf("  n%d -> n%d [label=%q];\n", from, to, g.Prog.Locs.String(l))
		return true
	})
	if maxEdges > 0 && g.EdgeCount > maxEdges {
		bw.printf("  truncated [shape=plaintext, label=\"(%d more edges)\"];\n", g.EdgeCount-maxEdges)
	}
	bw.printf("}\n")
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
