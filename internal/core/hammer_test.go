package core

import (
	"errors"
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/faultinject"
	"sparrow/internal/leakcheck"
	rt "sparrow/internal/runtime"
)

// hammerSeeds returns the seed set for the determinism hammer: 50 generated
// programs in full mode, trimmed to 8 under -short so the default test run
// stays fast. CI's multi-core scaling job runs the full set under -race.
func hammerSeeds(t *testing.T) []uint64 {
	n := 50
	if testing.Short() {
		n = 8
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(7000 + 13*i)
	}
	return seeds
}

// TestParallelDeterminismHammer is the determinism gate: many seeded
// generated programs, each solved at workers 0/1/2/4/8, requiring
// bit-identical memories, reachability, alarms, and work counters. The
// analysis is sequential, so nothing observable may depend on the worker
// count — in particular the library default (Workers 0) must agree with
// the command line's default.
func TestParallelDeterminismHammer(t *testing.T) {
	seeds := hammerSeeds(t)
	for i, seed := range seeds {
		src := cgen.Generate(cgen.Default(seed, 220+int(seed%7)*20))
		name := fmt.Sprintf("gen%d", seed)
		// Octagon is an order of magnitude slower; every fifth program is
		// hammered on it too.
		domains := []Domain{Interval}
		if i%5 == 0 {
			domains = append(domains, Octagon)
		}
		for _, d := range domains {
			base := runWorkers(t, d, src, 1)
			for _, w := range []int{0, 2, 4, 8} {
				r := runWorkers(t, d, src, w)
				label := fmt.Sprintf("%s/%s workers=%d", name, d, w)
				assertSameAnalysis(t, label, base, r)
				if r.Stats.Steps != base.Stats.Steps {
					t.Errorf("%s: steps %d vs %d", label, r.Stats.Steps, base.Stats.Steps)
				}
				if r.Stats.Rounds != base.Stats.Rounds {
					t.Errorf("%s: rounds %d vs %d", label, r.Stats.Rounds, base.Stats.Rounds)
				}
				if t.Failed() {
					t.Fatalf("%s: determinism broken, stopping hammer", label)
				}
			}
		}
	}
}

// TestInjectedComponentPanicNoLeaks injects a panic at a fixpoint checkpoint
// (which fires mid-component) of multi-worker runs and checks the contract
// from the fault-tolerance layer survives:
// the panic surfaces as a structured *AnalysisError and no goroutine
// outlives the aborted analysis.
func TestInjectedComponentPanicNoLeaks(t *testing.T) {
	src := cgen.Generate(cgen.Default(5, 4000))
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			plan := faultinject.NewPlan(faultinject.Fault{
				Kind: faultinject.Panic, Phase: rt.PhaseFix, At: 1,
			})
			var err error
			ok, before, after, dump := leakcheck.Check(func() {
				_, err = AnalyzeSource("cpanic.c", src, Options{
					Domain: Interval, Mode: Sparse, Workers: workers,
					FaultHook: plan.Hook(),
				})
			})
			if !ok {
				t.Fatalf("goroutines leaked: %d -> %d\n%s", before, after, dump)
			}
			if !plan.FiredKind(faultinject.Panic) {
				t.Skip("no fix-phase checkpoint reached under the poll stride")
			}
			var ae *AnalysisError
			if !errors.As(err, &ae) {
				t.Fatalf("err = %v, want *AnalysisError", err)
			}
			if ae.Phase != "fixpoint" {
				t.Errorf("Phase = %q want fixpoint", ae.Phase)
			}
		})
	}
}

// TestSeededFaultPlansNoLeaks sweeps seeded random fault schedules (panics,
// stalls, allocation spikes, cancellations) through the pipeline at 4 workers
// and requires every outcome to be clean: either a successful analysis or a
// structured error, never a leaked goroutine. This is the in-tree slice of
// the faults fuzz oracle.
func TestSeededFaultPlansNoLeaks(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	src := cgen.Generate(cgen.Default(17, 2500))
	for seed := 0; seed < n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := faultinject.Seeded(uint64(9000 + seed))
			var err error
			ok, before, after, dump := leakcheck.Check(func() {
				_, err = AnalyzeSource("fault.c", src, Options{
					Domain: Interval, Mode: Sparse, Workers: 4,
					FaultHook: plan.Hook(),
				})
			})
			if !ok {
				t.Fatalf("goroutines leaked: %d -> %d\n%s", before, after, dump)
			}
			if err != nil {
				var ae *AnalysisError
				var be *BudgetError
				if !errors.As(err, &ae) && !errors.As(err, &be) {
					t.Fatalf("unstructured failure: %v", err)
				}
			}
		})
	}
}
