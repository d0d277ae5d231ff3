package sparrow_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sparrow"
	"sparrow/internal/cgen"
	"sparrow/internal/core"
	"sparrow/internal/incr"
	"sparrow/internal/metrics"
)

// incrGoldenPrograms pairs corpus programs with their committed one-line-edit
// variants (testdata/incr/<name>.edited.c). The golden files pin the
// incremental solver's edit locality: how many components a one-line edit
// re-solves versus replays from the snapshot. A diff here means either the
// component structure moved (partitioning, hashing) or the invalidation
// got coarser — regenerate with -update only after checking which.
var incrGoldenPrograms = []string{"fpdispatch", "switchcase", "gotoloop"}

// incrGolden is the committed shape: the warm re-solve's component economy.
type incrGolden struct {
	Program    string `json:"program"`
	Components int    `json:"components"`
	Hits       int    `json:"incr_components_hit"`
	Misses     int    `json:"incr_components_miss"`
	Resolved   int    `json:"incr_components_resolved"`
}

// TestIncrementalEditLocalityGolden solves each base program into a
// snapshot, round-trips it through the codec, warm-solves the committed
// edited variant, and pins the hit/miss/resolved counters. It also checks
// the from-scratch-equivalence invariant inline: warm alarms must equal the
// cold solve's alarms.
func TestIncrementalEditLocalityGolden(t *testing.T) {
	for _, name := range incrGoldenPrograms {
		t.Run(name, func(t *testing.T) {
			base, err := os.ReadFile(filepath.Join("testdata", "corpus", name+".c"))
			if err != nil {
				t.Fatal(err)
			}
			edited, err := os.ReadFile(filepath.Join("testdata", "incr", name+".edited.c"))
			if err != nil {
				t.Fatal(err)
			}
			opt := sparrow.Options{Domain: sparrow.Interval, Mode: sparrow.Sparse, Workers: 1}

			optCold := opt
			optCold.Incr = incr.NewCache()
			if _, err := sparrow.AnalyzeSource(name+".c", string(base), optCold); err != nil {
				t.Fatal(err)
			}
			data, err := optCold.Incr.Encode()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := incr.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			optWarm := opt
			optWarm.Incr = loaded
			warm, err := sparrow.AnalyzeSource(name+".c", string(edited), optWarm)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := sparrow.AnalyzeSource(name+".c", string(edited), opt)
			if err != nil {
				t.Fatal(err)
			}
			warmAlarms, coldAlarms := warm.Alarms(), cold.Alarms()
			if len(warmAlarms) != len(coldAlarms) {
				t.Errorf("warm %d alarms vs cold %d", len(warmAlarms), len(coldAlarms))
			} else {
				for i := range coldAlarms {
					if warmAlarms[i].String() != coldAlarms[i].String() {
						t.Errorf("alarm %d: warm %s vs cold %s", i, warmAlarms[i], coldAlarms[i])
					}
				}
			}

			got := incrGolden{
				Program:    name,
				Components: warm.Stats.Components,
				Hits:       warm.Stats.IncrHits,
				Misses:     warm.Stats.IncrMisses,
				Resolved:   warm.Stats.IncrResolved,
			}
			if got.Hits == 0 {
				t.Errorf("one-line edit produced no snapshot hits: %+v", got)
			}
			if got.Resolved >= got.Components {
				t.Errorf("one-line edit re-solved every component: %+v", got)
			}
			path := filepath.Join("testdata", "golden", "incr", name+".json")
			if *updateGolden {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (regenerate with -update): %v", err)
			}
			var want incrGolden
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("edit locality drifted:\n  got  %+v\n  want %+v\n(regenerate with -update if intended)", got, want)
			}
		})
	}
}

// TestIncrementalGen1000EditAcceptance is the headline acceptance bar: on
// the benchmark suite's gen-1000 program, a single-statement edit must
// warm-resolve fewer than 30% of the components while staying bit-identical
// to a cold solve — same memories, same reachability, same alarms, and the
// same counter map apart from the incr_* bookkeeping group.
func TestIncrementalGen1000EditAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("gen-1000 acceptance solve skipped in -short mode")
	}
	src := cgen.Generate(cgen.Default(43, 1000))
	edited := cgen.Mutate(src, 43)
	if edited == src {
		t.Fatal("mutator produced a no-op edit")
	}

	opt := sparrow.Options{Domain: sparrow.Interval, Mode: sparrow.Sparse, Workers: 1}
	optBase := opt
	optBase.Incr = incr.NewCache()
	if _, err := sparrow.AnalyzeSource("gen-1000.c", src, optBase); err != nil {
		t.Fatal(err)
	}
	data, err := optBase.Incr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := incr.Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	optWarm := opt
	optWarm.Incr = loaded
	optWarm.Metrics = metrics.New()
	warm, err := sparrow.AnalyzeSource("gen-1000.c", edited, optWarm)
	if err != nil {
		t.Fatal(err)
	}
	optCold := opt
	optCold.Metrics = metrics.New()
	cold, err := sparrow.AnalyzeSource("gen-1000.c", edited, optCold)
	if err != nil {
		t.Fatal(err)
	}

	// Locality bar: < 30% of components re-solved after a one-statement edit.
	st := warm.Stats
	if st.Components == 0 {
		t.Fatal("warm solve reported zero components")
	}
	if st.IncrResolved*10 >= st.Components*3 {
		t.Errorf("edit re-solved %d of %d components (>= 30%%); hits=%d misses=%d",
			st.IncrResolved, st.Components, st.IncrHits, st.IncrMisses)
	}
	if st.IncrHits == 0 {
		t.Error("warm solve replayed nothing from the snapshot")
	}

	// From-scratch equivalence: memories and reachability bit-identical.
	diffs, err := core.DiffSparseRuns(cold, warm, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("warm vs cold: %s", d)
	}

	// Alarms bit-identical.
	warmAlarms, coldAlarms := warm.Alarms(), cold.Alarms()
	if len(warmAlarms) != len(coldAlarms) {
		t.Fatalf("warm %d alarms vs cold %d", len(warmAlarms), len(coldAlarms))
	}
	for i := range coldAlarms {
		if warmAlarms[i].String() != coldAlarms[i].String() {
			t.Errorf("alarm %d: warm %q vs cold %q", i, warmAlarms[i], coldAlarms[i])
		}
	}

	// Counters bit-identical apart from the incr_* group the warm run adds.
	warmCtrs := warm.MetricsReport().Counters
	coldCtrs := cold.MetricsReport().Counters
	for _, name := range []string{
		metrics.CtrIncrHits.String(), metrics.CtrIncrMisses.String(), metrics.CtrIncrResolved.String(),
	} {
		delete(warmCtrs, name)
	}
	for name, v := range coldCtrs {
		if warmCtrs[name] != v {
			t.Errorf("counter %s: warm %d vs cold %d", name, warmCtrs[name], v)
		}
	}
	for name, v := range warmCtrs {
		if _, ok := coldCtrs[name]; !ok {
			t.Errorf("counter %s=%d present only in the warm run", name, v)
		}
	}
}
