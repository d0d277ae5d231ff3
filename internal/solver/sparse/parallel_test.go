package sparse

import (
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/prean"
)

// parallelCorpus exercises the component schedule's interesting shapes:
// chains (condensation edges), loops (nontrivial SCCs), calls and recursion
// (reach marks that leave the component DAG), and function pointers.
var parallelCorpus = []struct {
	name string
	src  string
}{
	{"straightline", `
int g; int h;
int main() { int x; x = 2; g = x*3; h = g - 1; return 0; }
`},
	{"branch", `
int g;
int main() {
	int x; x = input();
	if (x > 0) { g = x; } else { g = -1; }
	return 0;
}
`},
	{"loop", `
int g;
int main() {
	int i; int s; s = 0;
	for (i = 0; i < 10; i++) { s = s + i; }
	g = s;
	return 0;
}
`},
	{"nestedloops", `
int g;
int main() {
	int i; int j; int s; s = 0;
	for (i = 0; i < 8; i++) {
		for (j = 0; j < i; j++) { s = s + j; }
	}
	g = s;
	return 0;
}
`},
	{"pointers", `
int a; int b; int g;
int main() {
	int *p;
	a = 1; b = 2;
	if (input()) { p = &a; } else { p = &b; }
	*p = 7;
	g = a + b;
	return 0;
}
`},
	{"calls", `
int g;
int add(int x, int y) { return x + y; }
void bump() { g = g + 1; }
int main() {
	g = add(3, 4);
	bump();
	bump();
	return 0;
}
`},
	{"recursion", `
int g;
int down(int n) { if (n <= 0) { return 0; } return down(n-1); }
int main() { g = down(9); return 0; }
`},
	{"funcptr", `
int g;
int one() { return 1; }
int two() { return 2; }
int main() {
	int (*fp)(void);
	if (input()) { fp = one; } else { fp = two; }
	g = fp();
	return 0;
}
`},
	{"islands", `
int g; int h;
void f() { g = 1; }
void k() { h = 2; }
int main() { f(); k(); return 0; }
`},
}

func buildPipeline(t *testing.T, src string, dopt dug.Options) (*pipeline, dug.Options) {
	t.Helper()
	f, err := parser.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	pre := prean.Run(prog)
	g := dug.Build(prog, pre, dopt)
	return &pipeline{prog: prog, pre: pre, g: g}, dopt
}

// assertSameResult checks that two sparse results agree exactly: identical
// reachability and semantically equal Acc/Out memories at every node.
func assertSameResult(t *testing.T, label string, g *dug.Graph, a, b *Result) {
	t.Helper()
	for pt := range a.Reached {
		if a.Reached[pt] != b.Reached[pt] {
			t.Errorf("%s: point %d reachability %v vs %v", label, pt, a.Reached[pt], b.Reached[pt])
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		if !a.Acc[n].Eq(b.Acc[n]) {
			t.Errorf("%s: node %d Acc differs:\n a %s\n b %s", label, n, a.Acc[n], b.Acc[n])
		}
		if !a.Out[n].Eq(b.Out[n]) {
			t.Errorf("%s: node %d Out differs:\n a %s\n b %s", label, n, a.Out[n], b.Out[n])
		}
	}
}

// TestParallelMatchesSequential checks that AnalyzeParallel, the forwarder
// kept for worker-count callers, is Analyze over the corpus, for both bypass
// modes, with and without narrowing.
func TestParallelMatchesSequential(t *testing.T) {
	for _, prog := range parallelCorpus {
		for _, bypass := range []bool{false, true} {
			for _, narrow := range []int{0, 2} {
				p, _ := buildPipeline(t, prog.src, dug.Options{Bypass: bypass})
				seq := Analyze(p.prog, p.pre, p.g, Options{Narrow: narrow})
				par := AnalyzeParallel(p.prog, p.pre, p.g, Options{Narrow: narrow, Workers: 4})
				label := fmt.Sprintf("%s bypass=%v narrow=%d", prog.name, bypass, narrow)
				assertSameResult(t, label, p.g, seq, par)
			}
		}
	}
}

// TestParallelDeterministicAcrossWorkers checks that the fixpoint ignores
// the worker count: every count, 0 included, produces the identical result,
// step count and round count.
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	for _, prog := range parallelCorpus {
		p, _ := buildPipeline(t, prog.src, dug.Options{Bypass: true})
		base := AnalyzeParallel(p.prog, p.pre, p.g, Options{Narrow: 2, Workers: 1})
		for _, w := range []int{0, 2, 4, 8} {
			r := AnalyzeParallel(p.prog, p.pre, p.g, Options{Narrow: 2, Workers: w})
			label := fmt.Sprintf("%s workers=%d", prog.name, w)
			assertSameResult(t, label, p.g, base, r)
			if r.Steps != base.Steps {
				t.Errorf("%s: steps %d vs %d at 1 worker", label, r.Steps, base.Steps)
			}
			if r.Rounds != base.Rounds {
				t.Errorf("%s: rounds %d vs %d at 1 worker", label, r.Rounds, base.Rounds)
			}
		}
	}
}

// TestParallelVsSequentialGenerated checks worker-count independence over
// machine-generated programs with switches and gotos: the library default
// (Workers 0) and a many-worker run compute the bit-identical fixpoint and
// counters, even where widening makes the fixpoint schedule-dependent.
func TestParallelVsSequentialGenerated(t *testing.T) {
	for seed := uint64(60); seed < 66; seed++ {
		cfg := cgen.Default(seed, 250)
		cfg.SwitchEvery = 6
		cfg.Gotos = seed%2 == 0
		src := cgen.Generate(cfg)
		f, err := parser.Parse("gen.c", src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lower.File(f)
		if err != nil {
			t.Fatal(err)
		}
		pre := prean.Run(prog)
		for _, bypass := range []bool{false, true} {
			g := dug.Build(prog, pre, dug.Options{Bypass: bypass})
			seq := Analyze(prog, pre, g, Options{Narrow: 2})
			par := AnalyzeParallel(prog, pre, g, Options{Narrow: 2, Workers: 8})
			label := fmt.Sprintf("seed %d bypass=%v", seed, bypass)
			assertSameResult(t, label, g, seq, par)
			assertSameCounters(t, label, seq, par)
		}
	}
}
