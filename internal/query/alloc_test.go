package query

import (
	"testing"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/relation"
	"indep/internal/schema"
)

// TestColdPlanAllocBudget pins what a fresh evaluator costs to compile its
// first plans on the benchmark's star schema: a local window over FACT, a
// DIM1 point window and a FACT ⋈ DIM1 join window. Plan reads each scheme's
// accepted Loop run from the decision, so the budget covers the plan
// itself (relevance and subsumption tests, consulted schemes) and nothing
// of The Loop. It measures 20 allocations; running The Loop once per
// scheme inside the evaluator, as it once did, measured 126.
func TestColdPlanAllocBudget(t *testing.T) {
	s := schema.MustParse("FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)")
	fds, err := fd.Parse(s.U, "A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y")
	if err != nil {
		t.Fatal(err)
	}
	res, err := independence.Decide(s, fds)
	if err != nil || !res.Independent {
		t.Fatalf("bench schema: independent %v, err %v", res != nil && res.Independent, err)
	}
	xs := []attrset.Set{s.U.Set("A", "B", "C", "D"), s.U.Set("A", "E", "F"), s.U.Set("A", "B", "C", "D", "E", "F")}
	if n := testing.AllocsPerRun(100, func() {
		ev := NewEvaluator(s, fds, res, chase.DefaultCaps)
		for _, x := range xs {
			if _, cached, err := ev.Plan(x); err != nil || cached {
				t.Fatalf("plan %v: cached %v, err %v", s.U.Names(x), cached, err)
			}
		}
	}); n > 25 {
		t.Fatalf("a cold evaluator compiling %d plans allocates %v/op, budget 25", len(xs), n)
	}
}

// TestWindowEvalAllocsFlat pins a warmed evaluation to its answer: on the
// benchmark's star schema, with every FACT key carried by three FACT rows,
// a key-selected window allocates as often at 1,000 FACT rows as at
// 10,000: a window FACT alone answers; [B E] selected on B, where FACT's
// three probed rows share their extension key {A,B} and extend once; and a
// DIM1 point window, which DIM1 alone answers (FACT is subsumed).
func TestWindowEvalAllocsFlat(t *testing.T) {
	s := schema.MustParse("FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)")
	fds, err := fd.Parse(s.U, "A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y")
	if err != nil {
		t.Fatal(err)
	}
	res, err := independence.Decide(s, fds)
	if err != nil || !res.Independent {
		t.Fatalf("bench schema: independent %v, err %v", res != nil && res.Independent, err)
	}
	count := func(n int, x attrset.Set, on string) float64 {
		st := relation.NewState(s)
		for i := 0; i < n; i++ {
			v := relation.Value(i)
			// B repeats A, so a B-selected window probes three FACT rows.
			st.Insts[0].Add(relation.Tuple{v / 3, v / 3, v % 5, v % 7})
			if i%3 == 0 {
				st.Insts[1].Add(relation.Tuple{v / 3, v % 11, v % 13, v % 17, v % 19, v % 23})
			}
		}
		ev := NewEvaluator(s, fds, res, chase.DefaultCaps)
		sel := []Cond{{Attr: s.U.MustIndex(on), Val: 7}}
		if r, err := ev.Query(st, x, sel); err != nil || r.Rows.Len() == 0 {
			t.Fatalf("window %v: %v rows, err %v", s.U.Names(x), r, err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := ev.Query(st, x, sel); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		x  attrset.Set
		on string
	}{
		{s.U.Set("A", "B", "C", "D"), "A"},
		{s.U.Set("B", "E"), "B"},
		{s.U.Set("A", "E", "F", "G", "H", "I"), "A"},
	} {
		if small, large := count(1000, c.x, c.on), count(10000, c.x, c.on); small != large {
			t.Fatalf("window %v allocates %v times at 1,000 FACT rows, %v at 10,000", s.U.Names(c.x), small, large)
		}
	}
}
