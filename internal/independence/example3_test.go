package independence

import (
	"testing"

	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
)

// The paper's Example 3, recovered from the garbled scan:
//
//	D  = {R1(A1,B1), R2(A1,B1,A2,B2,C)}
//	F2 = {A1→A2, B1→B2, A1B1→C, A2B2→A1B1C}
//
// Running the algorithm for R1: {A1} and {B1} are processed first, making
// A2, B2 available; then A1B1 and A2B2 are equivalent available l.h.s. with
// W = {A1, B1}. Picking A2B2 rejects at line 4 (A1, B1 are available
// attributes of its new set); picking A1B1 rejects at line 5 (the
// equivalent A2B2 computes different new attributes).
func example3() (*schema.Schema, fd.List) {
	s := schema.MustParse("R1(A1,B1); R2(A1,B1,A2,B2,C)")
	fds := fd.MustParse(s.U, "A1 -> A2; B1 -> B2; A1 B1 -> C; A2 B2 -> A1 B1 C")
	return s, fds
}

func TestExample3NotIndependent(t *testing.T) {
	s, fds := example3()
	res := mustDecide(t, s, fds)
	if res.Independent {
		t.Fatal("Example 3 must not be independent")
	}
	if res.Reason != ReasonLoopRejected {
		t.Fatalf("reason = %s", res.Reason)
	}
	verifyWitness(t, res, s, fds)
}

func TestExample3RejectsAtLine5WhenA1B1Picked(t *testing.T) {
	// With the universe declared A1,B1,... the deterministic picker takes
	// A1B1 before A2B2, which is the paper's "If A1B1 is chosen, rejection
	// will come at line 5".
	s, fds := example3()
	cover, ok, _ := infer.ExtractCover(s, fds)
	if !ok {
		t.Fatal("Example 3 is cover-embedding")
	}
	rej, _ := RunLoop(s, cover, s.IndexOf("R1"))
	if rej == nil {
		t.Fatal("loop must reject for R1")
	}
	if rej.Site != RejectLine5 {
		t.Fatalf("site = %s, want line 5", rej.Site)
	}
	if got := s.U.Format(rej.LHS, ""); got != "A1B1" {
		t.Fatalf("picked lhs = %s, want A1B1", got)
	}
	if got := s.U.Format(rej.EquivLHS, ""); got != "A2B2" {
		t.Fatalf("equivalent lhs = %s, want A2B2", got)
	}
}

func TestExample3RejectsAtLine4WhenA2B2Picked(t *testing.T) {
	// Declaring the universe with A2,B2 first reverses the deterministic
	// pick order, reproducing the paper's "If A2B2 is chosen, rejection
	// will come at line 4, as both of A1 and B1 are available attributes in
	// (A2B2)*_new".
	s := schema.MustParse("R2(A2,B2,A1,B1,C); R1(A1,B1)")
	fds := fd.MustParse(s.U, "A1 -> A2; B1 -> B2; A1 B1 -> C; A2 B2 -> A1 B1 C")
	cover, ok, _ := infer.ExtractCover(s, fds)
	if !ok {
		t.Fatal("cover-embedding expected")
	}
	rej, _ := RunLoop(s, cover, s.IndexOf("R1"))
	if rej == nil {
		t.Fatal("loop must reject for R1")
	}
	if rej.Site != RejectLine4 {
		t.Fatalf("site = %s, want line 4", rej.Site)
	}
	if got := s.U.Format(rej.LHS, ""); got != "A2B2" {
		t.Fatalf("picked lhs = %s, want A2B2", got)
	}
	name := s.U.Name(rej.Attr)
	if name != "A1" && name != "B1" {
		t.Fatalf("offending attribute = %s, want A1 or B1", name)
	}
}

func TestExample3WitnessMatchesPaperState(t *testing.T) {
	// The paper prints the counterexample state (universe order
	// A1 B1 A2 B2 C):
	//
	//	r1: (0,0)
	//	r2: (0,?,0,?,?) (?,0,?,0,?) (1,1,0,0,1)
	//
	// where ? are distinct fresh constants. Check our witness matches that
	// shape exactly.
	s, fds := example3()
	res := mustDecide(t, s, fds)
	w := res.Witness
	if w == nil {
		t.Fatal("witness missing")
	}
	r1 := w.Insts[s.IndexOf("R1")]
	if r1.Len() != 1 || !r1.Has(relation.Tuple{0, 0}) {
		t.Fatalf("r1 = %v, want {(0,0)}", r1.Rows())
	}
	r2 := w.Insts[s.IndexOf("R2")]
	if r2.Len() != 3 {
		t.Fatalf("r2 has %d tuples, want 3", r2.Len())
	}
	if !r2.Has(relation.Tuple{1, 1, 0, 0, 1}) {
		t.Fatalf("r2 missing the (1,1,0,0,1) row: %v", r2.Rows())
	}
	// The two derivation rows: zero exactly on {A1,A2} and {B1,B2}.
	var shapes []string
	for _, tu := range r2.Rows() {
		mask := ""
		for _, v := range tu {
			if v == 0 {
				mask += "0"
			} else if v == 1 {
				mask += "1"
			} else {
				mask += "f" // fresh
			}
		}
		shapes = append(shapes, mask)
	}
	want := map[string]bool{"0f0ff": false, "f0f0f": false, "11001": false}
	for _, m := range shapes {
		if _, ok := want[m]; !ok {
			t.Fatalf("unexpected row shape %s in %v", m, shapes)
		}
		want[m] = true
	}
	for m, seen := range want {
		if !seen {
			t.Fatalf("missing row shape %s in %v", m, shapes)
		}
	}
	// And of course the chase confirms it.
	ok, err := chase.IsIndependenceWitness(w, fds, chase.DefaultCaps)
	if err != nil || !ok {
		t.Fatalf("witness not confirmed: ok=%v err=%v", ok, err)
	}
}
