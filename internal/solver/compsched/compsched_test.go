package compsched

import (
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/leakcheck"
	"sparrow/internal/prean"
)

// bits is a toy domain over the 64-bit set lattice: a point adds its own
// bit, every third assume is refuted, and nodes relay whole sets along the
// dependency edges. The lattice has finite height and the domain never
// widens, so the fixpoint is the least one whatever the schedule — which
// lets a naive reference iteration check the engine's routing.
type bits struct {
	e *Engine[uint64]
}

func refuted(pt *ir.Point) bool { return isAssume(pt) && pt.ID%3 == 0 }

func (d *bits) Transfer(pt *ir.Point, acc uint64) (uint64, bool) {
	if refuted(pt) {
		return 0, false
	}
	return acc | 1<<(uint(pt.ID)%64), true
}

func (d *bits) Push(n dug.NodeID, out uint64) {
	e := d.e
	if e.Out[n]|out == e.Out[n] {
		return
	}
	e.Out[n] |= out
	e.Joins++
	cur := e.G.Out(n)
	for _, l := range e.G.Defs[n] {
		for _, succ := range cur.Seek(l) {
			if e.Acc[succ]|e.Out[n] != e.Acc[succ] {
				e.Acc[succ] |= e.Out[n]
				e.Route(succ)
			}
		}
	}
}

type toy struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
}

func buildToy(t *testing.T, src string) toy {
	t.Helper()
	f, err := parser.Parse("toy.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	return toy{prog: prog, pre: pre, g: dug.Build(prog, pre, dug.Options{Bypass: true})}
}

// reference computes the toy fixpoint by round-robin iteration over every
// node until nothing changes, with no schedule at all.
func (p toy) reference() (acc, out []uint64, reached []bool) {
	g := p.g
	e := New[uint64](p.prog, p.pre, g) // for propagateReach only
	dom := &bits{e: e}
	n := g.NumNodes()
	acc, out, reached = make([]uint64, n), make([]uint64, n), make([]bool, g.PointCount)
	reached[p.prog.ProcByID(p.prog.Main).Entry] = true
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			v := acc[i]
			if !g.IsPhi(dug.NodeID(i)) {
				pt := p.prog.Point(ir.PointID(i))
				if !reached[i] || refuted(pt) {
					continue
				}
				v, _ = dom.Transfer(pt, v)
				e.propagateReach(pt, func(t ir.PointID) {
					if !reached[t] {
						reached[t] = true
						changed = true
					}
				})
			}
			if out[i]|v != out[i] {
				out[i] |= v
				changed = true
			}
			cur := g.Out(dug.NodeID(i))
			for _, l := range g.Defs[i] {
				for _, succ := range cur.Seek(l) {
					if acc[succ]|out[i] != acc[succ] {
						acc[succ] |= out[i]
						changed = true
					}
				}
			}
		}
	}
	return acc, out, reached
}

// TestEngineMatchesReference checks the engine's schedule — component heap,
// seed buckets, local/later/deferred mark routing, the deferred-mark closure
// — against the schedule-free reference on loops, recursion, function
// pointers and generated programs: with a widening-free domain any correct
// schedule reaches the same least fixpoint, so a lost push or mark shows up
// as a difference.
func TestEngineMatchesReference(t *testing.T) {
	srcs := map[string]string{
		"recursion": `
int g;
int down(int n) { if (n <= 0) { return 0; } return down(n-1); }
int main() { int i; for (i = 0; i < 3; i++) { g = down(g); } return 0; }
`,
		"funcptr": `
int g;
int one() { return 1; }
int two() { g = g + 1; return 2; }
int main() {
	int (*fp)(void);
	if (input()) { fp = one; } else { fp = two; }
	while (g < 10) { g = g + fp(); }
	return 0;
}
`,
	}
	for seed := uint64(0); seed < 6; seed++ {
		cfg := cgen.Default(seed, 200)
		cfg.SwitchEvery = 5
		cfg.Gotos = seed%2 == 0
		srcs[fmt.Sprintf("gen%d", seed)] = cgen.Generate(cfg)
	}
	for name, src := range srcs {
		p := buildToy(t, src)
		e := New[uint64](p.prog, p.pre, p.g)
		e.Run(&bits{e: e}, p.prog.ProcByID(p.prog.Main).Entry)
		acc, out, reached := p.reference()
		for pt := range reached {
			if e.Reached[pt] != reached[pt] {
				t.Fatalf("%s: point %d reached %v, reference %v", name, pt, e.Reached[pt], reached[pt])
			}
		}
		for n := range acc {
			if e.Acc[n] != acc[n] || e.Out[n] != out[n] {
				t.Fatalf("%s: node %d acc/out %x/%x, reference %x/%x", name, n, e.Acc[n], e.Out[n], acc[n], out[n])
			}
		}
		if e.Rounds == 0 || e.Steps == 0 || e.TimedOut {
			t.Fatalf("%s: rounds %d steps %d timed out %v", name, e.Rounds, e.Steps, e.TimedOut)
		}
	}
}

// TestEngineEmptySeeds checks that a solve with no initially reachable point
// runs no wave and fires nothing.
func TestEngineEmptySeeds(t *testing.T) {
	p := buildToy(t, cgen.Generate(cgen.Default(7, 100)))
	e := New[uint64](p.prog, p.pre, p.g)
	e.Run(&bits{e: e})
	if e.Rounds != 0 || e.Steps != 0 {
		t.Fatalf("rounds %d steps %d, want 0", e.Rounds, e.Steps)
	}
	for pt, r := range e.Reached {
		if r {
			t.Fatalf("point %d reached", pt)
		}
	}
}

// TestEngineMaxSteps checks the step budget: the solve stops at the first
// firing past MaxSteps and reports the abort.
func TestEngineMaxSteps(t *testing.T) {
	p := buildToy(t, cgen.Generate(cgen.Default(7, 300)))
	e := New[uint64](p.prog, p.pre, p.g)
	e.MaxSteps = 25
	e.Run(&bits{e: e}, p.prog.ProcByID(p.prog.Main).Entry)
	if !e.TimedOut || e.Steps != e.MaxSteps+1 {
		t.Fatalf("timed out %v after %d steps, want abort at %d", e.TimedOut, e.Steps, e.MaxSteps+1)
	}
}

// panicky panics on the first transfer of one point.
type panicky struct {
	bits
	at ir.PointID
}

func (d *panicky) Transfer(pt *ir.Point, acc uint64) (uint64, bool) {
	if pt.ID == d.at {
		panic(fmt.Sprintf("boom-%d", pt.ID))
	}
	return d.bits.Transfer(pt, acc)
}

// TestEnginePanicIsolation checks that a domain panic unwinds out of Run on
// the caller's goroutine with its original value: the engine starts no
// goroutine, so the caller's recover (the core boundary) sees the panic
// directly and nothing is left running.
func TestEnginePanicIsolation(t *testing.T) {
	p := buildToy(t, cgen.Generate(cgen.Default(42, 200)))
	e := New[uint64](p.prog, p.pre, p.g)
	at := p.prog.ProcByID(p.prog.Main).Entry
	var got any
	ok, before, after, dump := leakcheck.Check(func() {
		defer func() { got = recover() }()
		e.Run(&panicky{bits: bits{e: e}, at: at}, at)
	})
	if !ok {
		t.Fatalf("goroutines %d -> %d:\n%s", before, after, dump)
	}
	if want := fmt.Sprintf("boom-%d", at); got != want {
		t.Fatalf("recovered %v, want %q", got, want)
	}
}
