package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/interp"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
)

// outcome is what one analysis of a program decided, seen through the
// same few accessors whether the public API or the traced pipeline ran it.
type outcome struct {
	prog *ir.Program
	// reached reports control reachability of a point.
	reached func(ir.PointID) bool
	// itvAt is a location's interval at a point; tracked is false where
	// the sparse result holds no value for it there.
	itvAt  func(ir.PointID, ir.LocID) (iv itv.Itv, tracked bool)
	alarms []string
	// restricted holds the per-kind restricted solves' alarms, in kind
	// order ("kind: alarm").
	restricted []string
}

// exitItv is a location's interval at the root exit.
func (o *outcome) exitItv(l ir.LocID) (itv.Itv, bool) {
	return o.itvAt(o.prog.ProcByID(o.prog.Main).Exit, l)
}

// globals lists the program's global variables.
func globals(prog *ir.Program) []ir.LocID {
	var out []ir.LocID
	for id := 0; id < prog.Locs.Len(); id++ {
		l := prog.Locs.Get(ir.LocID(id))
		if l.Kind == ir.LVar && l.Proc == ir.None {
			out = append(out, ir.LocID(id))
		}
	}
	return out
}

// fingerprint hashes the outcome's verdict: alarms (restricted ones
// included), the reached-point count and every global's exit interval.
func (o *outcome) fingerprint() uint64 {
	h := fnv.New64a()
	reached := 0
	for _, pt := range o.prog.Points {
		if o.reached(pt.ID) {
			reached++
		}
	}
	fmt.Fprintf(h, "reached=%d\n", reached)
	for _, l := range globals(o.prog) {
		iv, tracked := o.exitItv(l)
		fmt.Fprintf(h, "%s=%v/%v\n", o.prog.Locs.String(l), tracked, iv)
	}
	for _, a := range o.alarms {
		io.WriteString(h, a+"\n")
	}
	io.WriteString(h, "restricted\n")
	for _, a := range o.restricted {
		io.WriteString(h, a+"\n")
	}
	return h.Sum64()
}

// unbounded counts the globals whose exit interval is tracked and
// non-bottom (of) and, among them, those unbounded on either side (n).
func (o *outcome) unbounded() (n, of int) {
	for _, l := range globals(o.prog) {
		iv, tracked := o.exitItv(l)
		if !tracked || iv.IsBot() {
			continue
		}
		of++
		if !iv.Lo().IsFinite() || !iv.Hi().IsFinite() {
			n++
		}
	}
	return n, of
}

// boundedDefs counts the intervals that reached assignments to variables
// produce, where tracked and non-bottom (of), and, among them, those
// bounded on both sides (n). Unlike the exit globals, which generated
// programs leave almost all unbounded, these are about 40% bounded, so a
// precision loss shows.
func (o *outcome) boundedDefs() (n, of int) {
	for _, pt := range o.prog.Points {
		s, ok := pt.Cmd.(ir.Set)
		if !ok || o.prog.Locs.Get(s.L).Kind != ir.LVar || !o.reached(pt.ID) {
			continue
		}
		iv, tracked := o.itvAt(pt.ID, s.L)
		if !tracked || iv.IsBot() {
			continue
		}
		of++
		if iv.Lo().IsFinite() && iv.Hi().IsFinite() {
			n++
		}
	}
	return n, of
}

// referenceInputs is the input() stream of the reference interpretation
// (cycled), the one the differential fuzzer's soundness oracle uses.
var referenceInputs = []int64{3, -7, 12, 0, 45, -2, 8, 63, -31, 1}

// reference is one concrete execution of a program: the points it visited
// and the integer globals it observed at the root exit.
type reference struct {
	visited []bool
	exit    map[ir.LocID]int64
}

// interpret runs prog's source on the concrete interpreter. Traps (guarded
// out-of-bounds accesses, step exhaustion, overflow) end the run early;
// the prefix executed before them still has to be covered.
func interpret(p program) (*reference, error) {
	f, err := parser.Parse(p.name, p.src)
	if err != nil {
		return nil, err
	}
	prog, err := lower.File(f)
	if err != nil {
		return nil, err
	}
	exitPt := prog.ProcByID(prog.Main).Exit
	gl := globals(prog)
	ref := &reference{visited: make([]bool, len(prog.Points)), exit: map[ir.LocID]int64{}}
	_, err = interp.Run(prog, interp.Options{
		MaxSteps:       200000,
		Inputs:         referenceInputs,
		TrapOverflow:   true,
		TrapMissingRet: true,
		Observe: func(pt ir.PointID, get func(ir.LocID) (interp.Value, bool)) {
			ref.visited[pt] = true
			if pt != exitPt {
				return
			}
			for _, l := range gl {
				if v, ok := get(l); ok && v.Kind == interp.Int {
					ref.exit[l] = v.N
				}
			}
		},
	})
	var trap *interp.Trap
	if err != nil && !errors.As(err, &trap) {
		return nil, fmt.Errorf("interpreter: %w", err)
	}
	return ref, nil
}

// soundness checks the outcome against the concrete execution: every
// visited point is reached and every observed exit value of an integer
// global lies in its exit interval (untracked sparse values are skipped).
// It returns the first few violations.
func soundness(o *outcome, ref *reference) []string {
	const maxViolations = 3
	var vs []string
	for pt, seen := range ref.visited {
		if seen && !o.reached(ir.PointID(pt)) {
			vs = append(vs, fmt.Sprintf("point %d visited concretely but not reached", pt))
			if len(vs) == maxViolations {
				return vs
			}
		}
	}
	for _, l := range globals(o.prog) {
		n, ok := ref.exit[l]
		if !ok {
			continue
		}
		iv, tracked := o.exitItv(l)
		if !tracked || iv.IsBot() {
			continue
		}
		if iv.Lo().IsFinite() && n < iv.Lo().Int() || iv.Hi().IsFinite() && n > iv.Hi().Int() {
			vs = append(vs, fmt.Sprintf("global %s = %d at exit, outside %s", o.prog.Locs.String(l), n, iv))
			if len(vs) == maxViolations {
				return vs
			}
		}
	}
	return vs
}

// failures names every failed analysis of a run.
type failures struct {
	list []string
}

func (f *failures) add(prog, what string, details ...string) {
	msg := prog + ": " + what
	if len(details) > 0 {
		msg += ": " + strings.Join(details, "; ")
	}
	f.list = append(f.list, msg)
}
