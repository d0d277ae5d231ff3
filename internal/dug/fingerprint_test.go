package dug_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
)

var updateFingerprints = flag.Bool("update", false, "rewrite the golden graph fingerprints")

var fingerprintGolden = filepath.Join("..", "..", "testdata", "golden", "dug", "fingerprints.json")

// fingerprint hashes everything that identifies a built graph exactly: the
// phi table (and so the phi node numbering), the widening and priority
// tables, the per-node D̂/Û, the counters, and every dependency triple in
// Range order. Two graphs with equal fingerprints are bit-identical as far
// as any solver can observe.
func fingerprint(g *dug.Graph) string {
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	put(int64(g.PointCount), int64(len(g.Phis)), int64(g.EdgeCount), int64(g.SplicedTriples))
	for _, ph := range g.Phis {
		put(int64(ph.At), int64(ph.Loc))
	}
	for n := 0; n < g.NumNodes(); n++ {
		w := int64(0)
		if g.Widen[n] {
			w = 1
		}
		put(w, int64(g.Prio[n]))
		putLocs(h, g.Defs[n])
		putLocs(h, g.Uses[n])
	}
	g.Range(func(from dug.NodeID, l ir.LocID, to dug.NodeID) bool {
		put(int64(from), int64(l), int64(to))
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

func putLocs(h hash.Hash, ls []ir.LocID) {
	binary.Write(h, binary.LittleEndian, int64(len(ls)))
	for _, l := range ls {
		binary.Write(h, binary.LittleEndian, int64(l))
	}
}

func lowerSource(t *testing.T, name, src string) *ir.Program {
	t.Helper()
	f, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	return prog
}

// TestBuildFingerprint pins the exact graphs the builder produces — node
// numbering included, which the counter gate does not see — for every
// corpus program with the chain bypass on and off, for one generated
// program, and for one octagon (pack-ID) build. A diff means construction
// changed the graph; regenerate with `go test ./internal/dug -run
// TestBuildFingerprint -update` only when that change is intended.
func TestBuildFingerprint(t *testing.T) {
	corpus := filepath.Join("..", "..", "testdata", "corpus")
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".c")
		if !ok {
			continue
		}
		src, err := os.ReadFile(filepath.Join(corpus, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		prog := lowerSource(t, e.Name(), string(src))
		pre := prean.Run(prog)
		got[name+"/bypass"] = fingerprint(dug.Build(prog, pre, dug.Options{Bypass: true}))
		got[name+"/nobypass"] = fingerprint(dug.Build(prog, pre, dug.Options{}))
		if name == "matrix" {
			_, osrc := octsem.Source(prog, pre, pack.Build(prog, 0))
			got[name+"/octagon"] = fingerprint(dug.BuildFrom(osrc, dug.Options{Bypass: true}))
		}
	}
	prog := lowerSource(t, "gen.c", cgen.Generate(cgen.Default(7, 1500)))
	got["gen-7-1500/bypass"] = fingerprint(dug.Build(prog, prean.Run(prog), dug.Options{Bypass: true}))

	if *updateFingerprints {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if got[k] != want[k] {
			t.Errorf("%s: fingerprint %s, want %s", k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in golden file (regenerate with -update)", k)
		}
	}
}
