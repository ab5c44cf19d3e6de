package relation

import (
	"math/rand"
	"testing"

	"indep/internal/attrset"
	"indep/internal/schema"
)

func TestInstanceAddDedupe(t *testing.T) {
	in := NewInstance(attrset.Of(0, 1))
	if !in.Add(Tuple{1, 2}) {
		t.Fatal("first add must succeed")
	}
	if in.Add(Tuple{1, 2}) {
		t.Fatal("duplicate add must be rejected")
	}
	if in.Len() != 1 || !in.Has(Tuple{1, 2}) || in.Has(Tuple{2, 1}) {
		t.Fatal("membership wrong")
	}
}

func TestInstanceAddWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInstance(attrset.Of(0, 1)).Add(Tuple{1})
}

func TestProject(t *testing.T) {
	in := NewInstance(attrset.Of(0, 1, 2))
	in.Add(Tuple{1, 2, 3})
	in.Add(Tuple{1, 2, 4})
	p := in.Project(attrset.Of(0, 1))
	if p.Len() != 1 || !p.Has(Tuple{1, 2}) {
		t.Fatalf("projection wrong: %v", p.Rows())
	}
	p2 := in.Project(attrset.Of(2))
	if p2.Len() != 2 {
		t.Fatalf("projection wrong: %v", p2.Rows())
	}
}

func TestJoinBasic(t *testing.T) {
	// R(A,B) ⋈ S(B,C)
	r := NewInstance(attrset.Of(0, 1))
	r.Add(Tuple{1, 10})
	r.Add(Tuple{2, 20})
	s := NewInstance(attrset.Of(1, 2))
	s.Add(Tuple{10, 100})
	s.Add(Tuple{10, 101})
	s.Add(Tuple{30, 300})
	j := Join(r, s)
	if j.Attrs != attrset.Of(0, 1, 2) {
		t.Fatal("join scheme wrong")
	}
	if j.Len() != 2 || !j.Has(Tuple{1, 10, 100}) || !j.Has(Tuple{1, 10, 101}) {
		t.Fatalf("join tuples wrong: %v", j.Rows())
	}
}

func TestJoinDisjointIsCrossProduct(t *testing.T) {
	r := NewInstance(attrset.Of(0))
	r.Add(Tuple{1})
	r.Add(Tuple{2})
	s := NewInstance(attrset.Of(1))
	s.Add(Tuple{10})
	j := Join(r, s)
	if j.Len() != 2 {
		t.Fatalf("cross product size = %d", j.Len())
	}
}

func TestSemijoin(t *testing.T) {
	r := NewInstance(attrset.Of(0, 1))
	r.Add(Tuple{1, 10})
	r.Add(Tuple{2, 20})
	s := NewInstance(attrset.Of(1))
	s.Add(Tuple{10})
	sj := Semijoin(r, s)
	if sj.Len() != 1 || !sj.Has(Tuple{1, 10}) {
		t.Fatalf("semijoin wrong: %v", sj.Rows())
	}
}

func TestStateAndJoinConsistency(t *testing.T) {
	s := schema.MustParse("R1(A,B); R2(B,C)")
	st := NewState(s)
	st.Add("R1", Tuple{1, 2})
	st.Add("R2", Tuple{2, 3})
	if !st.JoinConsistent() {
		t.Fatal("state should be join consistent")
	}
	// Add a dangling tuple: R2 gets (9,9) with no R1 partner.
	st.Add("R2", Tuple{9, 9})
	if st.JoinConsistent() {
		t.Fatal("state with dangling tuple should not be join consistent")
	}
}

func TestProjectOntoRoundTrip(t *testing.T) {
	s := schema.MustParse("R1(A,B); R2(B,C)")
	uinst := NewInstance(s.U.All())
	uinst.Add(Tuple{1, 2, 3})
	uinst.Add(Tuple{4, 5, 6})
	st := ProjectOnto(s, uinst)
	if st.Insts[0].Len() != 2 || st.Insts[1].Len() != 2 {
		t.Fatal("projection sizes wrong")
	}
	if !st.JoinConsistent() {
		t.Fatal("projection of a universal instance must be join consistent")
	}
	j := st.JoinAll()
	for _, tu := range uinst.Rows() {
		if !j.Has(tu) {
			t.Fatal("join must contain original tuples")
		}
	}
}

func TestAddNamedAndString(t *testing.T) {
	s := schema.MustParse("CD(C,D); CT(C,T); TD(T,D)")
	st := NewState(s)
	st.AddNamed("CD", map[string]string{"C": "CS402", "D": "CS"})
	st.AddNamed("CT", map[string]string{"C": "CS402", "T": "Jones"})
	st.AddNamed("TD", map[string]string{"T": "Jones", "D": "EE"})
	out := st.String()
	if out == "" || st.TupleCount() != 3 {
		t.Fatalf("state wrong:\n%s", out)
	}
}

func TestAddNamedMissingValuePanics(t *testing.T) {
	s := schema.MustParse("R1(A,B)")
	st := NewState(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.AddNamed("R1", map[string]string{"A": "x"})
}

func TestQuickJoinCommutes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		a := NewInstance(attrset.Of(0, 1))
		b := NewInstance(attrset.Of(1, 2))
		for j := 0; j < 4; j++ {
			a.Add(Tuple{Value(r.Intn(3)), Value(r.Intn(3))})
			b.Add(Tuple{Value(r.Intn(3)), Value(r.Intn(3))})
		}
		ab, ba := Join(a, b), Join(b, a)
		if ab.Len() != ba.Len() {
			t.Fatal("join not commutative in size")
		}
		for _, tu := range ab.Rows() {
			if !ba.Has(tu) {
				t.Fatal("join not commutative in content")
			}
		}
	}
}

func TestQuickProjectionOfJoinContainsOperands(t *testing.T) {
	// π_R(r ⋈ s) ⊆ r (tuples that survive the join project back).
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		a := NewInstance(attrset.Of(0, 1))
		b := NewInstance(attrset.Of(1, 2))
		for j := 0; j < 5; j++ {
			a.Add(Tuple{Value(r.Intn(3)), Value(r.Intn(3))})
			b.Add(Tuple{Value(r.Intn(3)), Value(r.Intn(3))})
		}
		j := Join(a, b)
		for _, tu := range j.Project(a.Attrs).Rows() {
			if !a.Has(tu) {
				t.Fatal("projection of join produced a tuple not in operand")
			}
		}
	}
}

func TestDictNames(t *testing.T) {
	var d Dict
	v1 := d.Value("x")
	v2 := d.Value("y")
	if d.Value("x") != v1 || v1 == v2 {
		t.Fatal("interning broken")
	}
	if d.Name(v2) != "y" {
		t.Fatal("Name broken")
	}
	if d.Name(Value(99)) != "99" {
		t.Fatal("unnamed value must print numerically")
	}
}

func TestInstanceRemove(t *testing.T) {
	in := NewInstance(attrset.Of(0, 1))
	ts := []Tuple{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	for _, tu := range ts {
		in.Add(tu)
	}
	if in.Remove(Tuple{9, 9}) {
		t.Fatal("removed an absent tuple")
	}
	// Remove from the middle: the swap must keep the index consistent.
	if !in.Remove(Tuple{3, 4}) {
		t.Fatal("failed to remove a present tuple")
	}
	if in.Len() != 3 || in.Has(Tuple{3, 4}) {
		t.Fatal("remove left the tuple behind")
	}
	for _, tu := range []Tuple{{1, 2}, {5, 6}, {7, 8}} {
		if !in.Has(tu) {
			t.Fatalf("remove lost unrelated tuple %v", tu)
		}
	}
	// Remove the (current) last tuple, then everything else.
	for _, tu := range []Tuple{{1, 2}, {5, 6}, {7, 8}} {
		if !in.Remove(tu) {
			t.Fatalf("failed to remove %v", tu)
		}
	}
	if in.Len() != 0 {
		t.Fatalf("Len = %d after removing everything", in.Len())
	}
	// Add after remove must still deduplicate correctly.
	if !in.Add(Tuple{3, 4}) || in.Add(Tuple{3, 4}) {
		t.Fatal("re-add after remove broken")
	}
}
