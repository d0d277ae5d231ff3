package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
)

// benchmarkSpec is the part of BENCHMARK.json the tests compare against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs one workload at a tiny population and decodes the result
// line.
func tinyRun(t *testing.T, workload string, trace bool, perturb func(*outcome)) (result, string) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{
		workload:  workload,
		seed:      7,
		seconds:   0.001,
		trace:     trace,
		corpusDir: "../testdata/corpus",
		spansDir:  t.TempDir(),
		tiny:      true,
		perturb:   perturb,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestSmoke runs every workload of BENCHMARK.json, untraced and traced, at
// a tiny population: each run must be correct and print exactly the
// metric names and units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, out := tinyRun(t, w, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestNegativeControl checks that unsound results are counted as failed
// analyses: a perturbed exit interval and a dropped reached point.
func TestNegativeControl(t *testing.T) {
	cases := []struct {
		name    string
		perturb func(*outcome)
		want    string
	}{
		{"exit interval", func(o *outcome) {
			orig := o.itvAt
			o.itvAt = func(pt ir.PointID, l ir.LocID) (itv.Itv, bool) {
				iv, tracked := orig(pt, l)
				if tracked && !iv.IsBot() {
					return itv.Single(1 << 40), true
				}
				return iv, tracked
			}
		}, "at exit, outside"},
		{"reached point", func(o *outcome) {
			entry := o.prog.ProcByID(o.prog.Main).Entry
			orig := o.reached
			o.reached = func(pt ir.PointID) bool { return pt != entry && orig(pt) }
		}, "visited concretely but not reached"},
	}
	for _, c := range cases {
		for _, trace := range []bool{false, true} {
			res, out := tinyRun(t, "interval-small", trace, c.perturb)
			if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", c.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if !strings.Contains(out, c.want) {
				t.Errorf("%s trace=%v: no failure names %q:\n%s", c.name, trace, c.want, out)
			}
		}
	}
}

// TestPrecisionLoss checks that the gated precision figure moves when every
// interval is widened to top, which is sound but loses all precision.
func TestPrecisionLoss(t *testing.T) {
	base, _ := tinyRun(t, "interval-small", false, nil)
	lossy, out := tinyRun(t, "interval-small", false, func(o *outcome) {
		orig := o.itvAt
		o.itvAt = func(pt ir.PointID, l ir.LocID) (itv.Itv, bool) {
			iv, tracked := orig(pt, l)
			if tracked && !iv.IsBot() {
				return itv.Top, true
			}
			return iv, tracked
		}
	})
	if !lossy.Correct {
		t.Fatalf("top intervals counted as failures:\n%s", out)
	}
	b, l := base.Metrics["bounded_defs_ratio"].Value, lossy.Metrics["bounded_defs_ratio"].Value
	if b <= 0 || l != 0 {
		t.Errorf("bounded_defs_ratio %v, with every interval top %v; want > 0 and 0", b, l)
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "interval-small", "--trace", "2"},
		{"--workload", "interval-small", "--seconds", "0"},
		{"--workload", "interval-small", "extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	cfg, err := parseFlags([]string{"--workload", "octagon-mid", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil || cfg.workload != "octagon-mid" || cfg.seed != 9 || cfg.seconds != 3 || !cfg.trace {
		t.Errorf("parseFlags: %+v, %v", cfg, err)
	}
	if _, err := lookupWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestHDQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := hdQuantile(xs, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("symmetric sample: median %v, want 3", got)
	}
	ys := make([]float64, 101)
	for i := range ys {
		ys[i] = float64(i)
	}
	if got := hdQuantile(ys, 0.9); math.Abs(got-90) > 0.5 {
		t.Errorf("0..100: p90 %v, want about 90", got)
	}
	if got := hdQuantile([]float64{7, 7, 7, 7}, 0.5); math.Abs(got-7) > 1e-9 {
		t.Errorf("constant sample: %v", got)
	}
}
