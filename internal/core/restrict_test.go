package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/check"
	"sparrow/internal/ir"
)

// restrictSources is the program set of the restriction tests: the demo,
// three generated programs and every testdata/corpus program.
func restrictSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{"demo.c": demo}
	for seed := uint64(31); seed < 34; seed++ {
		srcs[fmt.Sprintf("gen%d.c", seed)] = cgen.Generate(cgen.Default(seed, 120))
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.c"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	return srcs
}

// TestAnalyzeCheckersMatchesSequential pins the fan-out contract: running
// every checker's restricted pipeline through AnalyzeCheckers, at any
// worker count, yields runs bit-identical to the per-kind calls (alarms,
// restriction statistics, steps).
func TestAnalyzeCheckersMatchesSequential(t *testing.T) {
	for name, src := range restrictSources(t) {
		res, err := AnalyzeSource(name, src, Options{
			Domain: Interval, Mode: Sparse, Checkers: check.AllKinds,
		})
		if err != nil {
			t.Fatal(err)
		}
		seq := make([]*CheckerRun, len(check.AllKinds))
		for i, k := range check.AllKinds {
			if seq[i], err = res.AnalyzeChecker(k); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{0, 1, 2, 4} {
			runs, err := res.AnalyzeCheckers(check.AllKinds, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, run := range runs {
				want := seq[i]
				if run.Kind != want.Kind || run.Keep != want.Keep ||
					run.Nodes != want.Nodes || run.Rows != want.Rows ||
					run.Triples != want.Triples || run.Steps != want.Steps {
					t.Errorf("%s workers=%d %v: stats (keep %d nodes %d rows %d triples %d steps %d) vs sequential (%d %d %d %d %d)",
						name, workers, run.Kind, run.Keep, run.Nodes, run.Rows, run.Triples, run.Steps,
						want.Keep, want.Nodes, want.Rows, want.Triples, want.Steps)
				}
				var got, exp []string
				for _, a := range run.Alarms {
					got = append(got, a.String())
				}
				for _, a := range want.Alarms {
					exp = append(exp, a.String())
				}
				if !reflect.DeepEqual(got, exp) {
					t.Errorf("%s workers=%d %v: alarms %v vs sequential %v", name, workers, run.Kind, got, exp)
				}
			}
		}
	}
}

// TestAnalyzeCheckersSharesByKeepSet pins the sharing rule: a run is
// solved with the first kind of the call whose keep set — recomputed here
// per kind, independently of the grouping — equals its own, so two kinds
// share a solve exactly when their keep sets are equal. A lone AnalyzeChecker
// call solves with its own kind. On the generated programs buf, null and
// div are expected to share one solve at least once (their observed sets
// coincide on most of them).
func TestAnalyzeCheckersSharesByKeepSet(t *testing.T) {
	kinds := check.AllKinds
	if kinds[0] != check.BufferOverrun || kinds[1] != check.NullDeref || kinds[2] != check.DivByZero {
		t.Fatalf("check.AllKinds order changed: %v", kinds)
	}
	bufNullDiv := 0
	for name, src := range restrictSources(t) {
		res, err := AnalyzeSource(name, src, Options{
			Domain: Interval, Mode: Sparse, Checkers: kinds,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, idx := res.closureInputs()
		keeps := make([][]ir.LocID, len(kinds))
		for i, k := range kinds {
			keeps[i] = idx.Closure(res.seedSet(k))
		}
		runs, err := res.AnalyzeCheckers(kinds, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, run := range runs {
			first := slices.IndexFunc(keeps, func(k []ir.LocID) bool { return slices.Equal(k, keeps[i]) })
			if run.SolvedWith != kinds[first] {
				t.Errorf("%s %v: solved with %v, want %v", name, run.Kind, run.SolvedWith, kinds[first])
			}
			if run.Keep != len(keeps[i]) {
				t.Errorf("%s %v: keep %d, want %d", name, run.Kind, run.Keep, len(keeps[i]))
			}
			one, err := res.AnalyzeChecker(run.Kind)
			if err != nil {
				t.Fatal(err)
			}
			if one.SolvedWith != run.Kind {
				t.Errorf("%s %v: lone AnalyzeChecker solved with %v", name, run.Kind, one.SolvedWith)
			}
		}
		if strings.HasPrefix(name, "gen") && runs[0].SolvedWith == check.BufferOverrun && runs[1].SolvedWith == check.BufferOverrun &&
			runs[2].SolvedWith == check.BufferOverrun {
			bufNullDiv++
		}
	}
	if bufNullDiv == 0 {
		t.Error("no generated program had buf, null and div share one solve")
	}
}

// TestConcurrentAnalyzeChecker calls AnalyzeChecker from several goroutines
// on one Result: the lazily staged restriction inputs (control seeds,
// closure index) must be race-free under -race, and every call must agree
// with a sequential one.
func TestConcurrentAnalyzeChecker(t *testing.T) {
	res, err := AnalyzeSource("demo.c", demo, Options{
		Domain: Interval, Mode: Sparse, Checkers: check.AllKinds,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]*CheckerRun, len(check.AllKinds))
	var wg sync.WaitGroup
	for i, k := range check.AllKinds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], _ = res.AnalyzeChecker(k)
		}()
	}
	wg.Wait()
	for i, k := range check.AllKinds {
		want, err := res.AnalyzeChecker(k)
		if err != nil {
			t.Fatal(err)
		}
		got := runs[i]
		if got == nil || got.Keep != want.Keep || got.Triples != want.Triples ||
			got.Steps != want.Steps || len(got.Alarms) != len(want.Alarms) {
			t.Errorf("%v: concurrent run %+v vs sequential %+v", k, got, want)
		}
	}
}

// TestAnalyzeCheckersPrecondition mirrors AnalyzeChecker's guard.
func TestAnalyzeCheckersPrecondition(t *testing.T) {
	res, err := AnalyzeSource("demo.c", demo, Options{Domain: Interval, Mode: Base})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.AnalyzeCheckers(check.AllKinds, 4); err == nil {
		t.Fatal("AnalyzeCheckers on a non-sparse run: want error")
	}
}
