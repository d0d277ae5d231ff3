package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"

	"sparrow"
	"sparrow/internal/cgen"
	"sparrow/internal/check"
)

// workers is the goroutine budget of every analysis: the CLI default on the
// 2-core machine the benchmark was defined on.
const workers = 2

// workload is one seeded population of C sources and the analyzer
// configuration it runs under.
type workload struct {
	name string
	// domain is the abstract domain; every workload is sparse.
	domain sparrow.Domain
	// checkers selects the alarm kinds (nil = the classic three).
	checkers []check.Kind
	// restricted adds the per-kind restricted solves
	// (Result.AnalyzeCheckers) to every analysis.
	restricted bool
	// count programs of cgen.Default sizes spread evenly over
	// [minStmts, maxStmts] (the generator's statement parameter; the
	// lowered IR has about 1.85 times as many statements). knobs sets the
	// structural knobs of shape c; the seed deals the shapes 0..count-1
	// out to the sizes.
	count              int
	minStmts, maxStmts int
	knobs              func(r *rng, c int, cfg *cgen.Config)
	// corpus appends the handwritten testdata/corpus programs.
	corpus bool
}

var workloads = []*workload{
	{
		name:  "interval-large",
		count: 8, minStmts: 5000, maxStmts: 7500,
		knobs: func(_ *rng, c int, cfg *cgen.Config) { cfg.SCCSize = 4 + c%5 },
	},
	{
		name:  "interval-small",
		count: 96, minStmts: 300, maxStmts: 1500,
		knobs: smallKnobs,
	},
	{
		name:   "octagon-mid",
		domain: sparrow.Octagon,
		count:  48, minStmts: 800, maxStmts: 2700,
	},
	{
		name:       "checkers-restricted",
		checkers:   check.AllKinds,
		restricted: true,
		count:      48, minStmts: 800, maxStmts: 2700,
		corpus: true,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// smallKnobs gives interval-small program shape c one of the 48
// combinations of SCC size (1-4), switches (off/on), backward gotos
// (off/on) and pointer arrays (0-2); the switch frequency is drawn from
// the seed. A population of 96 holds each combination twice, so seeds
// differ in which program gets which shape, not in the mix.
func smallKnobs(r *rng, c int, cfg *cgen.Config) {
	c %= 48
	cfg.SCCSize = 1 + c%4
	if c/4%2 == 1 {
		cfg.SwitchEvery = 4 + r.intn(7)
	}
	cfg.Gotos = c/8%2 == 1
	cfg.PtrArrays = c / 16
}

// options is the analyzer configuration of every analysis of w.
func (w *workload) options() sparrow.Options {
	return sparrow.Options{Domain: w.domain, Mode: sparrow.Sparse, Workers: workers, Checkers: w.checkers}
}

// kinds is the effective checker selection.
func (w *workload) kinds() []check.Kind { return w.options().Kinds() }

// program is one analyzed translation unit.
type program struct {
	name string
	src  string
}

// population generates w's programs for seed. tiny shrinks it to a couple
// of small programs for the benchmark's own tests.
func (w *workload) population(seed uint64, tiny bool, corpusDir string) ([]program, error) {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	r := rng{s: seed ^ h.Sum64()}
	count, lo, hi := w.count, w.minStmts, w.maxStmts
	if tiny {
		count, lo, hi = min(count, 2), 150, 300
	}
	shapes := make([]int, count)
	for i := range shapes {
		shapes[i] = i
	}
	for i := count - 1; i > 0; i-- {
		j := r.intn(i + 1)
		shapes[i], shapes[j] = shapes[j], shapes[i]
	}
	var progs []program
	for i := 0; i < count; i++ {
		stmts := lo
		if count > 1 {
			stmts = lo + (hi-lo)*i/(count-1)
		}
		cfg := cgen.Default(r.next(), stmts)
		if w.knobs != nil {
			w.knobs(&r, shapes[i], &cfg)
		}
		progs = append(progs, program{name: fmt.Sprintf("gen%02d-%d.c", i, stmts), src: cgen.Generate(cfg)})
	}
	if w.corpus {
		files, err := filepath.Glob(filepath.Join(corpusDir, "*.c"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no corpus programs under %s", corpusDir)
		}
		slices.Sort(files)
		if tiny {
			files = files[:min(len(files), 3)]
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			progs = append(progs, program{name: filepath.Base(f), src: string(b)})
		}
	}
	return progs, nil
}

// rng is splitmix64, as in internal/cgen.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
