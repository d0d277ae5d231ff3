package sparse

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/prean"
)

func benchPipeline(b *testing.B) (*pipeline, dug.Options) {
	b.Helper()
	src := cgen.Generate(cgen.Default(43, 1000))
	f, err := parser.Parse("gen.c", src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		b.Fatal(err)
	}
	pre := prean.Run(prog)
	dopt := dug.Options{Bypass: true}
	g := dug.Build(prog, pre, dopt)
	return &pipeline{prog: prog, pre: pre, g: g}, dopt
}

// BenchmarkGen1000 measures the sparse fixpoint on the generated
// 1000-statement program.
func BenchmarkGen1000(b *testing.B) {
	p, _ := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(p.prog, p.pre, p.g, Options{})
	}
}
