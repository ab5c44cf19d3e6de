// Package workload generates schemas, dependency sets, and database states
// for tests, experiments and benchmarks: random covering schemas with
// controllable shape, FD sets embedded or free, locally-satisfying states,
// and the classic schemas from the paper.
package workload

import (
	"fmt"
	"math/rand"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/relation"
	"indep/internal/schema"
)

// Shape selects the hypergraph shape of a generated schema.
type Shape int

const (
	// ShapeRandom draws schemes as random attribute subsets.
	ShapeRandom Shape = iota
	// ShapeChain makes overlapping schemes R_i = {A_i, …, A_{i+w}}.
	ShapeChain
	// ShapeStar makes one wide fact scheme plus key-linked dimensions.
	ShapeStar
)

// Config controls random schema generation.
type Config struct {
	Attrs     int   // universe size
	Schemes   int   // number of relation schemes
	SchemeMax int   // max attributes per scheme (ShapeRandom)
	FDs       int   // number of FDs to draw
	LHSMax    int   // max attributes in an FD left-hand side
	Embedded  bool  // force every FD inside some scheme
	Shape     Shape // hypergraph shape
}

// Schema draws a random covering schema and FD list under the config.
func Schema(r *rand.Rand, cfg Config) (*schema.Schema, fd.List) {
	u := attrset.NewUniverse()
	for i := 0; i < cfg.Attrs; i++ {
		u.Add(attrName(i))
	}
	var rels []schema.Rel
	switch cfg.Shape {
	case ShapeChain:
		w := cfg.SchemeMax
		if w < 2 {
			w = 2
		}
		step := w - 1
		for lo, i := 0, 0; lo < cfg.Attrs; lo, i = lo+step, i+1 {
			var a attrset.Set
			for j := lo; j < lo+w && j < cfg.Attrs; j++ {
				a.Add(j)
			}
			if a.Len() < 2 && len(rels) > 0 {
				last := rels[len(rels)-1]
				rels[len(rels)-1].Attrs = last.Attrs.Union(a)
				break
			}
			rels = append(rels, schema.Rel{Name: fmt.Sprintf("R%d", i+1), Attrs: a})
		}
	case ShapeStar:
		k := cfg.Schemes
		if k < 2 {
			k = 2
		}
		var fact attrset.Set
		for i := 0; i < k-1; i++ {
			fact.Add(i)
		}
		rels = append(rels, schema.Rel{Name: "FACT", Attrs: fact})
		per := (cfg.Attrs - (k - 1)) / (k - 1)
		next := k - 1
		for i := 0; i < k-1; i++ {
			a := attrset.Of(i)
			for j := 0; j < per && next < cfg.Attrs; j++ {
				a.Add(next)
				next++
			}
			rels = append(rels, schema.Rel{Name: fmt.Sprintf("DIM%d", i+1), Attrs: a})
		}
		for ; next < cfg.Attrs; next++ {
			rels[len(rels)-1].Attrs.Add(next)
		}
	default:
		var covered attrset.Set
		for i := 0; i < cfg.Schemes; i++ {
			var a attrset.Set
			w := 2 + r.Intn(max(1, cfg.SchemeMax-1))
			for j := 0; j < w; j++ {
				a.Add(r.Intn(cfg.Attrs))
			}
			covered = covered.Union(a)
			rels = append(rels, schema.Rel{Name: fmt.Sprintf("R%d", i+1), Attrs: a})
		}
		missing := u.All().Diff(covered)
		if !missing.IsEmpty() {
			rels = append(rels, schema.Rel{Name: "REST", Attrs: missing})
		}
	}
	s := schema.New(u, rels...)

	var fds fd.List
	for i := 0; i < cfg.FDs; i++ {
		var pool []int
		if cfg.Embedded {
			rel := rels[r.Intn(len(rels))]
			pool = rel.Attrs.Attrs()
		} else {
			pool = u.All().Attrs()
		}
		if len(pool) < 2 {
			continue
		}
		var lhs attrset.Set
		for j := 0; j < 1+r.Intn(max(1, cfg.LHSMax)); j++ {
			lhs.Add(pool[r.Intn(len(pool))])
		}
		rhs := attrset.Of(pool[r.Intn(len(pool))])
		if rhs.SubsetOf(lhs) {
			continue
		}
		fds = append(fds, fd.FD{LHS: lhs, RHS: rhs})
	}
	return s, fds
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func attrName(i int) string {
	if i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("A%d", i)
}

// LocalState draws random states until one is locally satisfying w.r.t.
// fds ∪ {*D} (chase-checked), or returns nil after tries attempts.
func LocalState(r *rand.Rand, s *schema.Schema, fds fd.List, tuplesPerRel, domain, tries int) *relation.State {
	for try := 0; try < tries; try++ {
		st := relation.NewState(s)
		for i, rel := range s.Rels {
			w := rel.Attrs.Len()
			for j := 0; j < tuplesPerRel; j++ {
				t := make(relation.Tuple, w)
				for c := range t {
					t[c] = relation.Value(r.Intn(domain))
				}
				st.Insts[i].Add(t)
			}
		}
		ok, _, err := chase.LocallySatisfies(st, fds, true, chase.DefaultCaps)
		if err == nil && ok {
			return st
		}
	}
	return nil
}

// Classic schemas from the paper, by name.

// Example1 returns the paper's Example 1: CD, CT, TD with C→D, C→T, T→D —
// the canonical non-independent schema.
func Example1() (*schema.Schema, fd.List) {
	s := schema.MustParse("CD(C,D); CT(C,T); TD(T,D)")
	return s, fd.MustParse(s.U, "C -> D; C -> T; T -> D")
}

// Example1State returns Example 1's CS402/Jones state: locally satisfying
// but globally unsatisfying.
func Example1State() (*relation.State, fd.List) {
	s, fds := Example1()
	st := relation.NewState(s)
	st.AddNamed("CD", map[string]string{"C": "CS402", "D": "CS"})
	st.AddNamed("CT", map[string]string{"C": "CS402", "T": "Jones"})
	st.AddNamed("TD", map[string]string{"T": "Jones", "D": "EE"})
	return st, fds
}

// Example2 returns the paper's Example 2: CT, CS, CHR with C→T, CH→R — the
// canonical independent schema.
func Example2() (*schema.Schema, fd.List) {
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	return s, fd.MustParse(s.U, "C -> T; C H -> R")
}

// Example2Broken returns Example 2 with SH→R added: cover-embedding fails.
func Example2Broken() (*schema.Schema, fd.List) {
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	return s, fd.MustParse(s.U, "C -> T; C H -> R; S H -> R")
}

// Example3 returns the paper's Example 3, recovered from the garbled scan
// (internal/independence/example3_test.go walks through its rejections):
// R1(A1,B1), R2(A1,B1,A2,B2,C) with A1→A2, B1→B2, A1B1→C, A2B2→A1B1C.
func Example3() (*schema.Schema, fd.List) {
	s := schema.MustParse("R1(A1,B1); R2(A1,B1,A2,B2,C)")
	return s, fd.MustParse(s.U, "A1 -> A2; B1 -> B2; A1 B1 -> C; A2 B2 -> A1 B1 C")
}

// University returns a larger registrar schema in the spirit of the
// paper's running academic example; it is independent.
func University() (*schema.Schema, fd.List) {
	s := schema.MustParse(
		"COURSE(C,T,D); ENROLL(S,C,G); ROOMS(C,H,R); STUDENT(S,N,Y)")
	return s, fd.MustParse(s.U,
		"C -> T; C -> D; S C -> G; C H -> R; S -> N; S -> Y")
}
