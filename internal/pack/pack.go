// Package pack implements the syntactic variable-packing strategy of the
// packed relational analysis (Section 4): semantically related variables
// are grouped so that each group gets its own small octagon, following
// Miné's/Astrée's approach — variables occurring in the same expressions,
// conditions, and actual/formal parameter bindings are grouped, groups are
// capped (the paper splits packs larger than 10), and every variable also
// gets a singleton pack for projections.
package pack

import (
	"slices"

	"sparrow/internal/ir"
)

// ID identifies a pack. Packs are part of the abstract-location space of
// the relational analysis (L# = Packs).
type ID = ir.LocID

// DefaultCap is the paper's pack size threshold.
const DefaultCap = 10

// Set is the computed packing.
type Set struct {
	// Members[p] lists the variable locations of pack p, sorted. The first
	// len(singletonOf) packs are the singletons, in location order.
	Members [][]ir.LocID
	// packsOf[l] lists the packs containing location l (singleton first).
	packsOf map[ir.LocID][]ID
	// singletonOf[l] is l's singleton pack.
	singletonOf map[ir.LocID]ID
	// indexIn[l] gives l's variable index within each pack (parallel to
	// packsOf[l]).
	indexIn map[ir.LocID][]int
}

// NumPacks returns the number of packs.
func (s *Set) NumPacks() int { return len(s.Members) }

// PacksOf returns the packs containing l (nil if l is not packed).
func (s *Set) PacksOf(l ir.LocID) []ID { return s.packsOf[l] }

// Singleton returns l's singleton pack; ok is false if l is not a packing
// candidate.
func (s *Set) Singleton(l ir.LocID) (ID, bool) {
	p, ok := s.singletonOf[l]
	return p, ok
}

// IndexIn returns l's variable index within pack p, or -1.
func (s *Set) IndexIn(l ir.LocID, p ID) int {
	for i, q := range s.packsOf[l] {
		if q == p {
			return s.indexIn[l][i]
		}
	}
	return -1
}

// AvgSize returns the average size of non-singleton packs (the paper
// reports 5–7 for its benchmarks).
func (s *Set) AvgSize() float64 {
	n, sum := 0, 0
	for _, m := range s.Members {
		if len(m) > 1 {
			n++
			sum += len(m)
		}
	}
	if n == 0 {
		return 1
	}
	return float64(sum) / float64(n)
}

// Build computes the packing of prog with the given size cap (0 uses
// DefaultCap). Candidates are the strongly-updatable locations (variables,
// fields of variables, return channels); summary locations join packs too
// but are only ever weakly updated by the relational semantics.
func Build(prog *ir.Program, cap int) *Set {
	if cap <= 0 {
		cap = DefaultCap
	}
	u := newUnionFind()

	relate := func(locs []ir.LocID) {
		for i := 1; i < len(locs); i++ {
			u.union(locs[i-1], locs[i], cap)
		}
	}
	// Group variables appearing together in one command.
	for _, pt := range prog.Points {
		switch c := pt.Cmd.(type) {
		case ir.Set:
			relate(append(varsOf(c.E), c.L))
		case ir.Store:
			relate(append(varsOf(c.P), varsOf(c.E)...))
		case ir.StoreField:
			relate(append(varsOf(c.P), varsOf(c.E)...))
		case ir.Assume:
			relate(varsOf(c.E))
		case ir.Return:
			pr := prog.ProcByID(pt.Proc)
			if c.E != nil && pr.RetLoc != ir.None {
				relate(append(varsOf(c.E), pr.RetLoc))
			}
		case ir.Call:
			// Actual/formal pairs relate across the boundary (the paper's
			// parameter packs).
			if fa, ok := c.F.(ir.FuncAddr); ok {
				callee := prog.ProcByID(fa.F)
				for i, f := range callee.Formals {
					if i < len(c.Args) {
						relate(append(varsOf(c.Args[i]), f))
					}
				}
			}
		case ir.RetBind:
			if c.L == ir.None {
				continue
			}
			call := prog.Point(c.CallPt).Cmd.(ir.Call)
			if fa, ok := call.F.(ir.FuncAddr); ok {
				if rl := prog.ProcByID(fa.F).RetLoc; rl != ir.None {
					relate([]ir.LocID{c.L, rl})
				}
			}
		}
	}

	s := &Set{
		packsOf:     map[ir.LocID][]ID{},
		singletonOf: map[ir.LocID]ID{},
		indexIn:     map[ir.LocID][]int{},
	}
	// Singleton packs first: one per interned location, with pack ID equal
	// to the location ID, so projections are always available.
	nLocs := prog.Locs.Len()
	for l := 0; l < nLocs; l++ {
		lid := ir.LocID(l)
		p := ID(len(s.Members))
		s.Members = append(s.Members, []ir.LocID{lid})
		s.singletonOf[lid] = p
		s.packsOf[lid] = append(s.packsOf[lid], p)
		s.indexIn[lid] = append(s.indexIn[lid], 0)
	}
	// Group packs.
	cands := make([]ir.LocID, 0, len(u.parent))
	for l := range u.parent {
		cands = append(cands, l)
	}
	slices.Sort(cands)
	groups := map[ir.LocID][]ir.LocID{}
	for _, l := range cands {
		r := u.find(l)
		groups[r] = append(groups[r], l)
	}
	roots := make([]ir.LocID, 0, len(groups))
	for r, members := range groups {
		if len(members) > 1 {
			roots = append(roots, r)
		}
	}
	slices.Sort(roots)
	for _, r := range roots {
		members := groups[r]
		slices.Sort(members)
		p := ID(len(s.Members))
		s.Members = append(s.Members, members)
		for i, l := range members {
			s.packsOf[l] = append(s.packsOf[l], p)
			s.indexIn[l] = append(s.indexIn[l], i)
		}
	}
	return s
}

// varsOf collects the variable locations syntactically read in e (the V(e)
// of Section 4.2).
func varsOf(e ir.Expr) []ir.LocID {
	var out []ir.LocID
	var walk func(ir.Expr)
	walk = func(e ir.Expr) {
		switch e := e.(type) {
		case ir.VarE:
			out = append(out, e.L)
		case ir.Load:
			walk(e.P)
		case ir.LoadField:
			walk(e.P)
		case ir.FieldAddr:
			walk(e.P)
		case ir.Bin:
			walk(e.X)
			walk(e.Y)
		case ir.Neg:
			walk(e.X)
		case ir.Not:
			walk(e.X)
		}
	}
	walk(e)
	return out
}

// ---------- size-capped union-find ----------

type unionFind struct {
	parent map[ir.LocID]ir.LocID
	size   map[ir.LocID]int
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[ir.LocID]ir.LocID{}, size: map[ir.LocID]int{}}
}

func (u *unionFind) find(x ir.LocID) ir.LocID {
	if _, ok := u.parent[x]; !ok {
		u.parent[x] = x
		u.size[x] = 1
	}
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the groups of a and b unless the merged size would exceed
// cap (the paper splits oversized packs; refusing the merge approximates
// that with the same bound).
func (u *unionFind) union(a, b ir.LocID, cap int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra]+u.size[rb] > cap {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
