package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparrow/internal/bench"
)

// runCLI invokes run with captured output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestWriteThenCheck exercises the full loop on a two-file corpus: write a
// snapshot, then -check against it (must pass: counters are deterministic).
func TestWriteThenCheck(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	writeCorpus(t, corpus)
	snap := filepath.Join(dir, "snap.json")
	times := filepath.Join(dir, "times.json")

	code, out, errb := runCLI(t, "-gen=false", "-corpus", corpus, "-out", snap, "-times", times)
	if code != 0 {
		t.Fatalf("write: exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "wrote") {
		t.Errorf("write output: %s", out)
	}
	checkTimes(t, times)
	code, out, errb = runCLI(t, "-gen=false", "-corpus", corpus, "-check", "-snapshot", snap, "-times", times)
	if code != 0 {
		t.Fatalf("check: exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "match") {
		t.Errorf("check output: %s", out)
	}
	// -check also refreshes the report-only times snapshot.
	checkTimes(t, times)
}

// checkTimes parses the report-only times snapshot and sanity-checks that
// every entry carries a positive wall time (nothing here is gated, but the
// file must at least be well-formed and populated).
func checkTimes(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("times snapshot: %v", err)
	}
	var ts bench.TimesSnapshot
	if err := json.Unmarshal(b, &ts); err != nil {
		t.Fatalf("times snapshot: %v", err)
	}
	if len(ts.Entries) == 0 {
		t.Fatal("times snapshot: no entries")
	}
	for _, e := range ts.Entries {
		if e.WallNS <= 0 {
			t.Errorf("%s: wall_ns = %d, want > 0", e.Key(), e.WallNS)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
}

// TestCheckLeavesTreeClean runs a write and a -check without -times from
// inside a fresh working directory: neither may leave a times snapshot
// behind, so a gate run in a checkout does not dirty it.
func TestCheckLeavesTreeClean(t *testing.T) {
	t.Chdir(t.TempDir())
	writeCorpus(t, "corpus")
	if code, _, errb := runCLI(t, "-gen=false", "-corpus", "corpus", "-out", "snap.json"); code != 0 {
		t.Fatalf("write: exit %d, stderr: %s", code, errb)
	}
	if code, _, errb := runCLI(t, "-gen=false", "-corpus", "corpus", "-check", "-snapshot", "snap.json"); code != 0 {
		t.Fatalf("check: exit %d, stderr: %s", code, errb)
	}
	if _, err := os.Stat("BENCH_times.json"); !os.IsNotExist(err) {
		t.Errorf("BENCH_times.json written without -times (stat: %v)", err)
	}
}

// TestCheckDetectsRegression tampers with the baseline and expects exit 1.
func TestCheckDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	writeCorpus(t, corpus)
	snap := filepath.Join(dir, "snap.json")
	if code, _, errb := runCLI(t, "-gen=false", "-times=", "-corpus", corpus, "-out", snap); code != 0 {
		t.Fatalf("write failed: %s", errb)
	}
	tamper(t, snap)
	code, _, errb := runCLI(t, "-gen=false", "-times=", "-corpus", corpus, "-check", "-snapshot", snap)
	if code != 1 {
		t.Fatalf("check on tampered baseline: exit %d, want 1 (stderr: %s)", code, errb)
	}
	if !strings.Contains(errb, "regression") {
		t.Errorf("stderr: %s", errb)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, "positional"); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-corpus", "does-not-exist"); code != 2 {
		t.Errorf("bad corpus: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-check", "-snapshot", "does-not-exist.json", "-corpus", "does-not-exist"); code != 2 {
		t.Errorf("bad snapshot: exit %d, want 2", code)
	}
}
