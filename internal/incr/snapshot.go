// Package incr is the persistence layer of incremental re-analysis: a
// versioned snapshot memoizing, per SCC component of the sparse scheduling
// DAG, the transcripts of the canonical one-worker component runs. Entries
// are content-addressed — the key hashes the component's structure, its full
// input history, and the current run's incoming values (see hash.go) — so a
// snapshot taken after a solve replays bit-identically on any later program
// version wherever the keys still match, and silently falls back to a live
// solve wherever they do not. The solver driver that records and replays the
// transcripts lives in internal/solver/sparse; this package owns the data
// model, the stable value codec, and the schema-versioned wire format.
package incr

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sparrow/internal/cfg"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/lattice/val"
)

// SnapshotSchema is the wire-format version. Bump it whenever the hash
// definition, the transcript contents, or the value encoding changes
// meaning: a decoded snapshot of a different schema is rejected outright
// (the metrics/bench schema discipline), because replaying a transcript
// recorded under different rules would silently poison every downstream
// fixpoint.
const SnapshotSchema = 1

// Run is the transcript of one component run: the externally visible effects
// and internal state deltas of executing the component's worklist loop once,
// under the canonical sequential schedule. Node references are the dense
// per-component local indices (stable across program versions whenever the
// component's structure hash matches); location references index the
// snapshot's stable-key dictionary.
type Run struct {
	// Fired lists the points (by local index, sorted) that fired
	// successfully at least once — i.e. propagated control reachability.
	// Replay re-marks their control successors against the *current*
	// program; the target set is recomputed, never stored.
	Fired []int32 `json:"fired,omitempty"`
	// Out/Acc record the run's changed output and (component-internal)
	// accumulated-input entries with their final values. Intermediate
	// ascending values are not stored: pushing only the final value through
	// the LessEq-gated joins reaches the same downstream state (the joins
	// are monotone and the final value dominates the intermediates).
	Out []Delta `json:"out,omitempty"`
	Acc []Delta `json:"acc,omitempty"`
	// Counts records the changed per-(node, definition) widening-counter
	// slots with their final values; Def indexes Defs[node].
	Counts []Count `json:"counts,omitempty"`
	// Solver work performed by the run, re-credited on replay so the
	// metrics counters stay bit-identical to a cold solve.
	Steps     int64 `json:"steps,omitempty"`
	Joins     int64 `json:"joins,omitempty"`
	Widenings int64 `json:"widenings,omitempty"`
}

// Delta is one changed (node, location) entry with its final value.
type Delta struct {
	Node int32 `json:"n"`
	Loc  int32 `json:"l"` // index into the snapshot's location dictionary
	Val  Value `json:"v"`
}

// Count is one changed widening-counter slot.
type Count struct {
	Node int32 `json:"n"`
	Def  int32 `json:"d"`
	Cnt  int32 `json:"c"`
}

// Value is the wire form of val.Val. Pointer targets and function members
// reference the dictionaries, so a decoded value is portable across program
// versions (decoding fails — forcing a cache miss — when a referenced entity
// no longer exists).
type Value struct {
	Itv    Interval `json:"i"`
	Ptr    []Ptr    `json:"p,omitempty"`
	Fns    []int32  `json:"f,omitempty"`
	Uninit bool     `json:"u,omitempty"`
}

// Interval is the wire form of itv.Itv: "bot", or decimal/"-oo"/"+oo"
// endpoint strings (int64 endpoints are exact in decimal; JSON numbers
// would round through float64).
type Interval struct {
	Bot bool   `json:"bot,omitempty"`
	Lo  string `json:"lo,omitempty"`
	Hi  string `json:"hi,omitempty"`
}

// Ptr is one points-to entry.
type Ptr struct {
	Loc int32    `json:"l"`
	Off Interval `json:"o"`
	Sz  Interval `json:"s"`
}

// snapshot is the wire envelope.
type snapshot struct {
	Schema int `json:"schema"`
	// The widening configuration the transcripts were recorded under; a
	// replay under different thresholds would diverge, so the incremental
	// solver refuses a cache whose values differ from its own.
	WidenThreshold  int             `json:"widen_threshold"`
	EntryWidenDelay int             `json:"entry_widen_delay"`
	Locs            []string        `json:"locs,omitempty"`
	Procs           []string        `json:"procs,omitempty"`
	Entries         map[string]*Run `json:"entries,omitempty"`
}

// Cache is the runtime form of a snapshot: the memo table plus the stable
// dictionaries, optionally bound to a concrete program for encoding and
// decoding values.
type Cache struct {
	// WidenThreshold/EntryWidenDelay stamp the widening configuration the
	// transcripts assume: the solvers' constants for a new cache, the
	// recorded values for a decoded one.
	WidenThreshold  int
	EntryWidenDelay int

	entries map[string]*Run
	locs    []string
	procs   []string
	locIdx  map[string]int32
	procIdx map[string]int32

	// Binding against a concrete program version (Bind): dictionary entry i
	// resolves to locIDs[i]/procIDs[i], or ir.None when the entity does not
	// exist in this version.
	namer   *ir.StableNamer
	locIDs  []ir.LocID
	procIDs []ir.ProcID
	locOf   map[ir.LocID]int32
	procOf  map[ir.ProcID]int32
}

// NewCache returns an empty cache stamped with the solvers' widening
// configuration (cfg.WidenThreshold, cfg.EntryWidenDelay).
func NewCache() *Cache {
	return &Cache{
		WidenThreshold:  cfg.WidenThreshold,
		EntryWidenDelay: cfg.EntryWidenDelay,
		entries:         map[string]*Run{},
		locIdx:          map[string]int32{},
		procIdx:         map[string]int32{},
	}
}

// Len returns the number of memoized runs.
func (c *Cache) Len() int { return len(c.entries) }

// Lookup returns the memoized run for key.
func (c *Cache) Lookup(key string) (*Run, bool) {
	r, ok := c.entries[key]
	return r, ok
}

// Store memoizes a run under key.
func (c *Cache) Store(key string, r *Run) { c.entries[key] = r }

// Bind resolves the cache's dictionaries against prog: every stable key is
// looked up (never interned) in the program, so entries referencing entities
// absent from this version decode as misses. Bind must be called before
// EncodeVal/DecodeVal/LocID/ProcID; calling it again re-binds to a new
// program version.
func (c *Cache) Bind(prog *ir.Program, namer *ir.StableNamer) {
	c.namer = namer
	c.locIDs = make([]ir.LocID, len(c.locs))
	c.procIDs = make([]ir.ProcID, len(c.procs))
	c.locOf = make(map[ir.LocID]int32, len(c.locs))
	c.procOf = make(map[ir.ProcID]int32, len(c.procs))
	for i, key := range c.locs {
		if id, ok := namer.ResolveLoc(key); ok {
			c.locIDs[i] = id
			c.locOf[id] = int32(i)
		} else {
			c.locIDs[i] = ir.None
		}
	}
	for i, key := range c.procs {
		if id, ok := namer.ResolveProc(key); ok {
			c.procIDs[i] = id
			c.procOf[id] = int32(i)
		} else {
			c.procIDs[i] = ir.None
		}
	}
}

// LocIdx interns the dictionary index of location l (recording side).
func (c *Cache) LocIdx(l ir.LocID) int32 {
	if i, ok := c.locOf[l]; ok {
		return i
	}
	key := c.namer.LocKey(l)
	i, ok := c.locIdx[key]
	if !ok {
		i = int32(len(c.locs))
		c.locs = append(c.locs, key)
		c.locIdx[key] = i
		c.locIDs = append(c.locIDs, l)
	}
	c.locOf[l] = i
	return i
}

// ProcIdx interns the dictionary index of procedure p (recording side).
func (c *Cache) ProcIdx(p ir.ProcID) int32 {
	if i, ok := c.procOf[p]; ok {
		return i
	}
	key := c.namer.ProcKey(p)
	i, ok := c.procIdx[key]
	if !ok {
		i = int32(len(c.procs))
		c.procs = append(c.procs, key)
		c.procIdx[key] = i
		c.procIDs = append(c.procIDs, p)
	}
	c.procOf[p] = i
	return i
}

// LocID resolves a dictionary index against the bound program.
func (c *Cache) LocID(idx int32) (ir.LocID, bool) {
	if int(idx) >= len(c.locIDs) || c.locIDs[idx] == ir.None {
		return 0, false
	}
	return c.locIDs[idx], true
}

// ProcID resolves a dictionary index against the bound program.
func (c *Cache) ProcID(idx int32) (ir.ProcID, bool) {
	if int(idx) >= len(c.procIDs) || c.procIDs[idx] == ir.None {
		return 0, false
	}
	return c.procIDs[idx], true
}

// EncodeVal encodes a value against the bound program's dictionaries.
func (c *Cache) EncodeVal(v val.Val) Value {
	out := Value{Itv: encodeItv(v.Itv()), Uninit: v.MayUninit()}
	for _, e := range v.Ptr() {
		out.Ptr = append(out.Ptr, Ptr{
			Loc: c.LocIdx(e.Loc),
			Off: encodeItv(e.R.Off),
			Sz:  encodeItv(e.R.Sz),
		})
	}
	for _, f := range v.Fns() {
		out.Fns = append(out.Fns, c.ProcIdx(f))
	}
	return out
}

// DecodeVal decodes a wire value against the bound program. ok is false when
// any referenced location or procedure does not resolve in this program
// version or an interval is malformed — callers treat that as a cache miss.
func (c *Cache) DecodeVal(w Value) (val.Val, bool) {
	i, ok := decodeItv(w.Itv)
	if !ok {
		return val.Bot, false
	}
	var ptr []val.PtrEntry
	for _, p := range w.Ptr {
		l, ok := c.LocID(p.Loc)
		if !ok {
			return val.Bot, false
		}
		off, ok1 := decodeItv(p.Off)
		sz, ok2 := decodeItv(p.Sz)
		if !ok1 || !ok2 {
			return val.Bot, false
		}
		ptr = append(ptr, val.PtrEntry{Loc: l, R: val.Region{Off: off, Sz: sz}})
	}
	var fns []ir.ProcID
	for _, f := range w.Fns {
		p, ok := c.ProcID(f)
		if !ok {
			return val.Bot, false
		}
		fns = append(fns, p)
	}
	return val.Make(i, ptr, fns, w.Uninit), true
}

func encodeItv(v itv.Itv) Interval {
	if v.IsBot() {
		return Interval{Bot: true}
	}
	return Interval{Lo: encodeBound(v.Lo()), Hi: encodeBound(v.Hi())}
}

func encodeBound(b itv.Bound) string {
	switch {
	case b.IsNegInf():
		return "-oo"
	case b.IsPosInf():
		return "+oo"
	default:
		return strconv.FormatInt(b.Int(), 10)
	}
}

func decodeItv(w Interval) (itv.Itv, bool) {
	if w.Bot {
		return itv.Bot, true
	}
	lo, ok1 := decodeBound(w.Lo)
	hi, ok2 := decodeBound(w.Hi)
	if !ok1 || !ok2 || lo.Cmp(hi) > 0 {
		return itv.Bot, false
	}
	return itv.Of(lo, hi), true
}

func decodeBound(s string) (itv.Bound, bool) {
	switch s {
	case "-oo":
		return itv.NegInf, true
	case "+oo":
		return itv.PosInf, true
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return itv.Bound{}, false
	}
	return itv.Fin(n), true
}

// Encode serializes the cache. The output is deterministic — JSON object
// keys come out sorted and the dictionaries preserve interning order, which
// is itself canonical because the recording schedule is — so two snapshots
// of identical solves are byte-identical.
func (c *Cache) Encode() ([]byte, error) {
	s := snapshot{
		Schema:          SnapshotSchema,
		WidenThreshold:  c.WidenThreshold,
		EntryWidenDelay: c.EntryWidenDelay,
		Locs:            c.locs,
		Procs:           c.procs,
		Entries:         c.entries,
	}
	return json.MarshalIndent(&s, "", " ")
}

// Decode parses a serialized snapshot. A schema mismatch is an error, never
// a silent fallback: the caller decides whether to re-solve cold.
func Decode(data []byte) (*Cache, error) {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("incr: corrupt snapshot: %w", err)
	}
	if s.Schema != SnapshotSchema {
		return nil, fmt.Errorf("incr: snapshot schema %d is not the supported %d (re-solve cold and save a fresh snapshot)", s.Schema, SnapshotSchema)
	}
	c := NewCache()
	c.WidenThreshold = s.WidenThreshold
	c.EntryWidenDelay = s.EntryWidenDelay
	c.locs = s.Locs
	c.procs = s.Procs
	if s.Entries != nil {
		c.entries = s.Entries
	}
	for i, key := range c.locs {
		c.locIdx[key] = int32(i)
	}
	for i, key := range c.procs {
		c.procIdx[key] = int32(i)
	}
	return c, nil
}

// LoadFile reads and decodes a snapshot file.
func LoadFile(path string) (*Cache, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// SaveFile encodes the cache and writes it to path.
func (c *Cache) SaveFile(path string) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValKey renders a value as a canonical string for input hashing: a pure
// function of the value's structural content with every location and
// procedure named stably, so two Eq values — on any program version — render
// identically.
func ValKey(v val.Val, sn *ir.StableNamer) string {
	var b strings.Builder
	b.WriteString("i=")
	writeItvKey(&b, v.Itv())
	for _, e := range v.Ptr() {
		b.WriteString(";&")
		b.WriteString(sn.LocKey(e.Loc))
		b.WriteByte('/')
		writeItvKey(&b, e.R.Off)
		b.WriteByte('/')
		writeItvKey(&b, e.R.Sz)
	}
	for _, f := range v.Fns() {
		b.WriteString(";fn=")
		b.WriteString(sn.ProcKey(f))
	}
	if v.MayUninit() {
		b.WriteString(";u")
	}
	return b.String()
}

func writeItvKey(b *strings.Builder, v itv.Itv) {
	if v.IsBot() {
		b.WriteString("bot")
		return
	}
	b.WriteByte('[')
	b.WriteString(encodeBound(v.Lo()))
	b.WriteByte(',')
	b.WriteString(encodeBound(v.Hi()))
	b.WriteByte(']')
}
