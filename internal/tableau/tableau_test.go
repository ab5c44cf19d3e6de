package tableau

import (
	"testing"

	"indep/internal/attrset"
	"indep/internal/relation"
	"indep/internal/schema"
)

func TestAddDedupAndSort(t *testing.T) {
	var tb T
	tb = tb.Add(Row{Tag: 1, DVs: attrset.Of(0, 1)})
	tb = tb.Add(Row{Tag: 0, DVs: attrset.Of(2)})
	tb = tb.Add(Row{Tag: 1, DVs: attrset.Of(0, 1)})
	if len(tb) != 2 {
		t.Fatalf("len = %d", len(tb))
	}
	if tb[0].Tag != 0 {
		t.Fatal("not sorted by tag")
	}
	if !tb.Has(Row{Tag: 0, DVs: attrset.Of(2)}) {
		t.Fatal("Has wrong")
	}
}

func TestLeqBasics(t *testing.T) {
	a := T{}.Add(Row{Tag: 0, DVs: attrset.Of(0)})
	b := T{}.Add(Row{Tag: 0, DVs: attrset.Of(0, 1)})
	if !Leq(a, b) || Leq(b, a) {
		t.Fatal("subset row must be ≤")
	}
	if !Lt(a, b) || Lt(b, a) {
		t.Fatal("Lt wrong")
	}
	// Different tags never match.
	c := T{}.Add(Row{Tag: 1, DVs: attrset.Of(0, 1)})
	if Leq(a, c) {
		t.Fatal("tag mismatch must block ≤")
	}
	// Empty tableau is weakest.
	if !Leq(T{}, a) || Leq(a, T{}) {
		t.Fatal("empty tableau must be strictly weakest")
	}
}

func TestEquivWithDifferentRowCounts(t *testing.T) {
	// {(0, AB)} ≡ {(0, A), (0, AB)}: the smaller row maps into the larger.
	big := T{}.Add(Row{Tag: 0, DVs: attrset.Of(0, 1)})
	both := big.Add(Row{Tag: 0, DVs: attrset.Of(0)})
	if !Equiv(big, both) {
		t.Fatal("expected equivalent")
	}
}

func TestDVsIn(t *testing.T) {
	tb := T{}.Add(Row{Tag: 0, DVs: attrset.Of(0)}).Add(Row{Tag: 1, DVs: attrset.Of(2)})
	if tb.DVsIn() != attrset.Of(0, 2) {
		t.Fatal("DVsIn wrong")
	}
}

func TestUnionValueSemantics(t *testing.T) {
	a := T{}.Add(Row{Tag: 0, DVs: attrset.Of(0)})
	b := T{}.Add(Row{Tag: 1, DVs: attrset.Of(1)})
	u := a.Union(b)
	if len(a) != 1 || len(b) != 1 || len(u) != 2 {
		t.Fatal("union must not mutate operands")
	}
}

func TestFindValuation(t *testing.T) {
	s := schema.MustParse("CT(C,T); TD(T,D)")
	st := relation.NewState(s)
	st.Add("CT", relation.Tuple{1, 10}) // C=1 T=10
	st.Add("TD", relation.Tuple{10, 5}) // T=10 D=5
	// Tableau requiring a CT row with dvs C,T and a TD row with dvs T,D.
	tb := T{}.
		Add(Row{Tag: 0, DVs: s.U.Set("C", "T")}).
		Add(Row{Tag: 1, DVs: s.U.Set("T", "D")})
	v, ok := FindValuation(tb, st, Valuation{s.U.MustIndex("C"): 1})
	if !ok {
		t.Fatal("valuation must exist")
	}
	if v[s.U.MustIndex("D")] != 5 || v[s.U.MustIndex("T")] != 10 {
		t.Fatalf("valuation = %v", v)
	}
	// Anchoring C to a non-existent value kills it.
	if _, ok := FindValuation(tb, st, Valuation{s.U.MustIndex("C"): 9}); ok {
		t.Fatal("valuation must not exist for C=9")
	}
}

func TestFindValuationBacktracks(t *testing.T) {
	s := schema.MustParse("CT(C,T); TD(T,D)")
	st := relation.NewState(s)
	// Two CT tuples with the same C; only the second joins with TD.
	st.Add("CT", relation.Tuple{1, 10})
	st.Add("CT", relation.Tuple{1, 20})
	st.Add("TD", relation.Tuple{20, 5})
	tb := T{}.
		Add(Row{Tag: 0, DVs: s.U.Set("C", "T")}).
		Add(Row{Tag: 1, DVs: s.U.Set("T", "D")})
	v, ok := FindValuation(tb, st, Valuation{s.U.MustIndex("C"): 1})
	if !ok || v[s.U.MustIndex("T")] != 20 {
		t.Fatalf("backtracking failed: ok=%v v=%v", ok, v)
	}
}

func TestFindValuationEmptyTableau(t *testing.T) {
	s := schema.MustParse("CT(C,T)")
	st := relation.NewState(s)
	if _, ok := FindValuation(T{}, st, nil); !ok {
		t.Fatal("empty tableau always has a valuation")
	}
}

// TestBindingBacktracksAcrossRows: a dead end two rows deep must unbind
// what it bound before the search retries an earlier row, and a failed
// search leaves a reused binding exactly as it found it.
func TestBindingBacktracksAcrossRows(t *testing.T) {
	s := schema.MustParse("AB(A,B); BC(B,C); CD(C,D)")
	st := relation.NewState(s)
	st.Add("AB", relation.Tuple{1, 10})
	st.Add("AB", relation.Tuple{1, 11})
	st.Add("BC", relation.Tuple{10, 100}) // reaches C=100, which has no D=7
	st.Add("BC", relation.Tuple{11, 101})
	st.Add("CD", relation.Tuple{101, 7})
	tb := T{
		{Tag: 0, DVs: s.U.Set("A", "B")},
		{Tag: 1, DVs: s.U.Set("B", "C")},
		{Tag: 2, DVs: s.U.Set("C", "D")},
	}
	a, c, d := s.U.MustIndex("A"), s.U.MustIndex("C"), s.U.MustIndex("D")
	var b Binding
	b.Reset(s.U.Size())
	b.Bind(a, 1)
	b.Bind(d, 8) // no CD row carries D=8
	before := b.Bound
	if b.Find(tb, st) {
		t.Fatal("no valuation reaches D=8")
	}
	if b.Bound != before {
		t.Fatalf("failed search left bindings %s", s.U.Format(b.Bound, " "))
	}
	b.Bind(d, 7)
	if !b.Find(tb, st) || b.Val[c] != 101 {
		t.Fatalf("backtracking across rows failed: C=%d", b.Val[c])
	}
}
