package independence

import (
	"math/rand"
	"testing"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/tableau"
	"indep/internal/workload"
)

func exampleTwo(t *testing.T) (*schema.Schema, fd.List, infer.AssignedList) {
	t.Helper()
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds := fd.MustParse(s.U, "C -> T; C H -> R")
	cover, ok, _ := infer.ExtractCover(s, fds)
	if !ok {
		t.Fatal("Example 2 embeds its cover")
	}
	return s, fds, cover
}

func TestPrepareExtensionAcceptsExample2(t *testing.T) {
	s, _, cover := exampleTwo(t)
	for l := range s.Rels {
		ar, rej := PrepareExtension(s, cover, l)
		if rej != nil {
			t.Fatalf("Example 2 must accept for %s: %v", s.Name(l), rej)
		}
		if ar.Scheme() != l {
			t.Fatal("Scheme() wrong")
		}
		if !s.Attrs(l).SubsetOf(ar.Available()) {
			t.Fatal("scheme attributes must be available")
		}
	}
}

func TestPrepareExtensionRejectsExample1(t *testing.T) {
	s := schema.MustParse("CD(C,D); CT(C,T); TD(T,D)")
	fds := fd.MustParse(s.U, "C -> D; C -> T; T -> D")
	cover, _, _ := infer.ExtractCover(s, fds)
	if _, rej := PrepareExtension(s, cover, s.IndexOf("CD")); rej == nil {
		t.Fatal("Example 1 must reject")
	}
}

func TestExtendTupleComputesDeterminedValues(t *testing.T) {
	s, _, cover := exampleTwo(t)
	// Analyze CS; a CS tuple (C, S) determines T through the CT relation.
	cs := s.IndexOf("CS")
	ar, rej := PrepareExtension(s, cover, cs)
	if rej != nil {
		t.Fatal(rej)
	}
	st := relation.NewState(s)
	st.Add("CT", relation.Tuple{1, 42}) // course 1 taught by 42
	st.Add("CS", relation.Tuple{1, 7})  // student 7 takes course 1
	ext, determined := ar.ExtendTuple(st, relation.Tuple{1, 7})
	tIdx := s.U.MustIndex("T")
	if !determined.Has(tIdx) {
		t.Fatalf("T must be determined; determined = %s", s.U.Format(determined, " "))
	}
	if ext[tIdx] != 42 {
		t.Fatalf("ī[T] = %d, want 42", ext[tIdx])
	}
	// H and R are not determined by a CS tuple: placeholders are negative.
	for _, name := range []string{"H", "R"} {
		i := s.U.MustIndex(name)
		if determined.Has(i) || ext[i] >= 0 {
			t.Fatalf("%s must be undetermined (got %d)", name, ext[i])
		}
	}
}

func TestExtendTupleAgreesWithChase(t *testing.T) {
	// Lemma 10 / Theorem 5: the valuation-computed extension of a tuple
	// agrees with what the FD-chase of the padded state derives for that
	// tuple's row.
	s, fds, cover := exampleTwo(t)
	cs := s.IndexOf("CS")
	ar, rej := PrepareExtension(s, cover, cs)
	if rej != nil {
		t.Fatal(rej)
	}
	r := rand.New(rand.NewSource(30))
	for iter := 0; iter < 50; iter++ {
		st := relation.NewState(s)
		for i := 0; i < 3; i++ {
			c := relation.Value(r.Intn(3))
			st.Add("CT", relation.Tuple{c, c*10 + 100})
			st.Add("CHR", relation.Tuple{c, relation.Value(r.Intn(2)), c*100 + 1000})
		}
		target := relation.Tuple{relation.Value(r.Intn(3)), 7}
		st.Add("CS", target.Clone())
		// The state is locally satisfying by construction (T and R are
		// functions of C resp. CH).
		ext, determined := ar.ExtendTuple(st, target)

		// Chase the padded state and locate the CS row.
		e := chase.NewEngine(s.U)
		e.PadState(st)
		if err := e.ChaseFDs(fds.Split(), chase.DefaultCaps); err != nil {
			t.Fatal(err)
		}
		w := e.WeakInstance()
		csAttrs := s.Attrs(cs)
		var chasedRow relation.Tuple
		for _, row := range w.Rows() {
			match := true
			for j, a := range csAttrs.Attrs() {
				if row[a] != target[j] {
					match = false
					break
				}
			}
			if match {
				chasedRow = row
				break
			}
		}
		if chasedRow == nil {
			t.Fatal("chased CS row not found")
		}
		determined.ForEach(func(a int) bool {
			if chasedRow[a] >= 0 && chasedRow[a] != ext[a] {
				t.Fatalf("extension disagrees with chase at %s: %d vs %d",
					s.U.Name(a), ext[a], chasedRow[a])
			}
			return true
		})
	}
}

func TestCompleteYieldsSatisfyingState(t *testing.T) {
	// Completing a dangling tuple must keep the state locally satisfying
	// and, per Theorem 5's induction, not create contradictions.
	s, fds, cover := exampleTwo(t)
	cs := s.IndexOf("CS")
	ar, rej := PrepareExtension(s, cover, cs)
	if rej != nil {
		t.Fatal(rej)
	}
	st := relation.NewState(s)
	st.Add("CT", relation.Tuple{1, 42})
	st.Add("CS", relation.Tuple{1, 7}) // dangling: no CHR partner
	out := ar.Complete(st, relation.Tuple{1, 7})
	ok, _, err := chase.LocallySatisfies(out, fds, true, chase.DefaultCaps)
	if err != nil || !ok {
		t.Fatalf("completed state must stay locally satisfying (err=%v):\n%s", err, out)
	}
	okG, err := chase.Satisfies(out, fds, true, chase.DefaultCaps)
	if err != nil || !okG {
		t.Fatalf("completed state must satisfy (err=%v):\n%s", err, out)
	}
	// The completed CS tuple now has join partners everywhere.
	if out.Insts[s.IndexOf("CHR")].Len() != 1 {
		t.Fatalf("CHR must have gained the extension row:\n%s", out)
	}
}

// TestExtendForMatchesExtendTuple differentially checks ExtendFor against
// ExtendTuple over random states of independent schemas and random want
// sets, reusing one Scratch throughout: ExtendFor succeeds exactly when
// ExtendTuple determines all of want, with the same values. It also checks
// Consulted(want): keeping only the tuples of the relations it tags that
// agree with ī on the DVs of their rows changes nothing.
func TestExtendForMatchesExtendTuple(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	var sc Scratch
	for _, mk := range []func() (*schema.Schema, fd.List){workload.Example2, workload.University, freeColumn} {
		s, fds := mk()
		cover, ok, _ := infer.ExtractCover(s, fds)
		if !ok {
			t.Fatalf("%s embeds its cover", s)
		}
		for round := 0; round < 6; round++ {
			st := workload.LocalState(r, s, fds, 5, 3, 200)
			if st == nil {
				continue
			}
			for l := range s.Rels {
				ar, rej := PrepareExtension(s, cover, l)
				if rej != nil {
					t.Fatal(rej)
				}
				for k := 0; k < 4; k++ {
					var want attrset.Set
					for a := 0; a < s.U.Size(); a++ {
						if r.Intn(3) == 0 {
							want.Add(a)
						}
					}
					consulted := ar.Consulted(want)
					for _, tu := range st.Insts[l].Rows() {
						ext, det := ar.ExtendTuple(st, tu)
						got := ar.ExtendFor(st, tu, want, &sc)
						if got != want.SubsetOf(det) {
							t.Fatalf("%s/%s want %s: ExtendFor %v, ExtendTuple determined %s",
								s, s.Name(l), s.U.Format(want, " "), got, s.U.Format(det, " "))
						}
						if !got {
							continue
						}
						for _, a := range want.Union(s.Attrs(l)).Attrs() {
							if sc.Ext[a] != ext[a] {
								t.Fatalf("%s/%s: %s = %d, ExtendTuple %d",
									s, s.Name(l), s.U.Name(a), sc.Ext[a], ext[a])
							}
						}
						narrow := agreeing(s, st, consulted, ext)
						if !ar.ExtendFor(narrow, tu, want, &sc) {
							t.Fatalf("%s/%s want %s: Consulted %s misses a tuple ExtendFor reads",
								s, s.Name(l), s.U.Format(want, " "), consulted.Format(s))
						}
						for _, a := range want.Attrs() {
							if sc.Ext[a] != ext[a] {
								t.Fatalf("%s/%s: %s over the consulted relations = %d, want %d",
									s, s.Name(l), s.U.Name(a), sc.Ext[a], ext[a])
							}
						}
					}
				}
			}
		}
	}
}

// freeColumn is a schema whose A -> C tableau row leaves V's B free: U's
// tuple (a,b) extends to C through a V tuple (a,c,b') with any b'.
func freeColumn() (*schema.Schema, fd.List) {
	s := schema.MustParse("U(A,B); V(A,C,B)")
	return s, fd.MustParse(s.U, "A -> C")
}

// agreeing is st cut down to the tuples some row of rows can map to in a
// valuation that agrees with ext: for each row, the tuples of the relation
// it tags that agree with ext on its DVs.
func agreeing(s *schema.Schema, st *relation.State, rows tableau.T, ext relation.Tuple) *relation.State {
	out := relation.NewState(s)
	for _, row := range rows {
		cols := s.Attrs(row.Tag).Attrs()
	tuples:
		for _, tu := range st.Insts[row.Tag].Rows() {
			for j, a := range cols {
				if row.DVs.Has(a) && tu[j] != ext[a] {
					continue tuples
				}
			}
			out.Insts[row.Tag].Add(tu)
		}
	}
	return out
}
