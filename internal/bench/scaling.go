// Worker-count scaling measurement: the report-only companion to the gated
// counter snapshot. CollectScaling runs the generated suite's sparse
// configurations at a ladder of worker counts and records fixpoint and
// whole-analysis wall times, from which the table derives speedup and
// parallel efficiency against the one-worker run. The worker count drives
// pre-analysis and def-use-graph construction; the fixpoint is sequential,
// so speedup is read off the whole run. Nothing here is gated — wall times
// are machine-dependent — except that the work counters must agree across
// the ladder.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sparrow/internal/core"
)

// ScalingSchema versions the scaling snapshot format.
const ScalingSchema = 1

// ScalingEntry is one (program, domain, workers) timing sample: the best
// fixpoint and wall time over the configured repetitions.
type ScalingEntry struct {
	Program string `json:"program"`
	Domain  string `json:"domain"`
	Workers int    `json:"workers"`
	// FixNS is the fixpoint time (sequential at every worker count);
	// WallNS the whole analysis, whose parallel phases the ladder varies.
	FixNS  int64 `json:"fix_ns"`
	WallNS int64 `json:"wall_ns"`
	// Rounds and Steps restate the deterministic counters as a cross-check
	// that every worker count solved the identical problem.
	Rounds int `json:"rounds"`
	Steps  int `json:"steps"`
}

// ScalingSnapshot is the report-only scaling artifact.
type ScalingSnapshot struct {
	Schema     int            `json:"schema"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Reps       int            `json:"reps"`
	Entries    []ScalingEntry `json:"entries"`
}

// ScalingOptions configures CollectScaling.
type ScalingOptions struct {
	// Workers is the ladder of pool sizes; empty means 1, 2, 4, 8.
	Workers []int
	// Reps is the repetitions per cell (best time wins); <1 means 3.
	Reps int
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(string)
}

// scalingConfigs returns the sparse configurations the ladder measures:
// both domains' sparse analyzers.
func scalingConfigs() []Config {
	return []Config{
		{core.Interval, core.Sparse},
		{core.Octagon, core.Sparse},
	}
}

// CollectScaling measures the generated suite (gen-400 and gen-1000) under
// every (sparse config, worker count) cell. Counters stay bit-identical
// across the ladder because the fixpoint ignores the worker count; a mismatch in
// rounds or steps is reported as an error because it would mean the cells
// solved different problems.
func CollectScaling(opt ScalingOptions) (*ScalingSnapshot, error) {
	workers := opt.Workers
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	reps := opt.Reps
	if reps < 1 {
		reps = 3
	}
	snap := &ScalingSnapshot{
		Schema:     ScalingSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Reps:       reps,
	}
	type cellKey struct {
		prog, domain string
	}
	baseCounters := map[cellKey][2]int{}
	for _, p := range GeneratedPrograms() {
		for _, cfg := range scalingConfigs() {
			for _, w := range workers {
				e := ScalingEntry{Program: p.Name, Workers: w}
				for rep := 0; rep < reps; rep++ {
					start := time.Now()
					res, err := core.AnalyzeSource(p.Name+".c", p.Src, core.Options{
						Domain:  cfg.Domain,
						Mode:    cfg.Mode,
						Workers: w,
					})
					if err != nil {
						return nil, fmt.Errorf("bench: scaling %s/%v workers=%d: %w", p.Name, cfg.Domain, w, err)
					}
					wall := time.Since(start)
					e.Domain = cfg.Domain.String()
					e.Rounds = res.Stats.Rounds
					e.Steps = res.Stats.Steps
					if fix := res.Stats.FixTime.Nanoseconds(); rep == 0 || fix < e.FixNS {
						e.FixNS = fix
					}
					if rep == 0 || wall.Nanoseconds() < e.WallNS {
						e.WallNS = wall.Nanoseconds()
					}
				}
				key := cellKey{p.Name, e.Domain}
				if w == workers[0] {
					baseCounters[key] = [2]int{e.Rounds, e.Steps}
				} else if base := baseCounters[key]; base != [2]int{e.Rounds, e.Steps} {
					return nil, fmt.Errorf("bench: scaling %s/%s workers=%d: rounds/steps %d/%d diverge from workers=%d's %d/%d",
						p.Name, e.Domain, w, e.Rounds, e.Steps, workers[0], base[0], base[1])
				}
				snap.Entries = append(snap.Entries, e)
				if opt.Progress != nil {
					opt.Progress(fmt.Sprintf("%s/%s workers=%d: fix=%v wall=%v",
						p.Name, e.Domain, w, time.Duration(e.FixNS).Round(time.Microsecond),
						time.Duration(e.WallNS).Round(time.Microsecond)))
				}
			}
		}
	}
	return snap, nil
}

// Save writes the snapshot as indented JSON.
func (s *ScalingSnapshot) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadScaling reads a scaling snapshot file.
func LoadScaling(path string) (*ScalingSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s ScalingSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

// baseline returns the snapshot's one-worker entry for the cell, if any.
func (s *ScalingSnapshot) baseline(prog, domain string) (ScalingEntry, bool) {
	for _, e := range s.Entries {
		if e.Program == prog && e.Domain == domain && e.Workers == 1 {
			return e, true
		}
	}
	return ScalingEntry{}, false
}

// ScalingMarkdown renders the snapshot as a Markdown report: one table per
// (program, domain) cell group with speedup and efficiency columns derived
// from the one-worker whole-run time.
func (s *ScalingSnapshot) ScalingMarkdown() string {
	var b []byte
	p := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	p("# Worker-count scaling (report-only)\n\n")
	p("Wall times of the sparse analyses on the generated suite, best of %d\n", s.Reps)
	p("runs per cell. The worker count drives pre-analysis and def-use-graph\n")
	p("construction; the fixpoint is sequential, so speedup and efficiency are\n")
	p("those of the whole run, relative to the one-worker run of the same\n")
	p("cell. Counters (rounds, steps) are verified identical across the\n")
	p("ladder before a row is recorded.\n\n")
	p("Measured on %s, GOMAXPROCS=%d, %d CPU core(s). Numbers from runners\n",
		s.GoVersion, s.GOMAXPROCS, s.NumCPU)
	p("with fewer cores than workers show oversubscription, not scaling.\n\n")
	seen := map[string]bool{}
	for _, e := range s.Entries {
		group := e.Program + "/" + e.Domain
		if seen[group] {
			continue
		}
		seen[group] = true
		base, ok := s.baseline(e.Program, e.Domain)
		p("## %s\n\n", group)
		p("| workers | fixpoint | whole run | speedup | efficiency |\n")
		p("|---:|---:|---:|---:|---:|\n")
		for _, r := range s.Entries {
			if r.Program != e.Program || r.Domain != e.Domain {
				continue
			}
			speed, eff := "n/a", "n/a"
			if ok && r.WallNS > 0 {
				ratio := float64(base.WallNS) / float64(r.WallNS)
				speed = fmt.Sprintf("%.2fx", ratio)
				eff = fmt.Sprintf("%.0f%%", 100*ratio/float64(r.Workers))
			}
			p("| %d | %v | %v | %s | %s |\n", r.Workers,
				time.Duration(r.FixNS).Round(time.Microsecond),
				time.Duration(r.WallNS).Round(time.Microsecond), speed, eff)
		}
		p("\n")
	}
	return string(b)
}
