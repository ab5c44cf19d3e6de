package attrset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOfAndHas(t *testing.T) {
	s := Of(0, 3, 63, 64, 255)
	for _, a := range []int{0, 3, 63, 64, 255} {
		if !s.Has(a) {
			t.Errorf("expected %d in set", a)
		}
	}
	for _, a := range []int{1, 2, 62, 65, 254} {
		if s.Has(a) {
			t.Errorf("did not expect %d in set", a)
		}
	}
	if s.Has(-1) || s.Has(256) {
		t.Error("out-of-range Has must be false")
	}
}

func TestAddRemove(t *testing.T) {
	var s Set
	s.Add(10)
	s.Add(100)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Remove(10)
	if s.Has(10) || !s.Has(100) {
		t.Fatal("Remove removed wrong element")
	}
	s.Remove(100)
	if !s.IsEmpty() {
		t.Fatal("set should be empty")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Add")
		}
	}()
	var s Set
	s.Add(MaxAttrs)
}

func TestSetAlgebra(t *testing.T) {
	a := Of(1, 2, 3, 70)
	b := Of(3, 4, 70, 200)
	if got := a.Union(b); got != Of(1, 2, 3, 4, 70, 200) {
		t.Errorf("Union = %v", got.Attrs())
	}
	if got := a.Intersect(b); got != Of(3, 70) {
		t.Errorf("Intersect = %v", got.Attrs())
	}
	if got := a.Diff(b); got != Of(1, 2) {
		t.Errorf("Diff = %v", got.Attrs())
	}
	if !Of(1, 2).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf wrong")
	}
	if !Of(1, 2).ProperSubsetOf(a) || a.ProperSubsetOf(a) {
		t.Error("ProperSubsetOf wrong")
	}
	if !a.Intersects(b) || Of(1).Intersects(Of(2)) {
		t.Error("Intersects wrong")
	}
}

func TestWithWithout(t *testing.T) {
	a := Of(1)
	b := a.With(2)
	if a != Of(1) {
		t.Error("With mutated receiver")
	}
	if b != Of(1, 2) {
		t.Error("With result wrong")
	}
	if b.Without(1) != Of(2) {
		t.Error("Without result wrong")
	}
}

func TestAttrsAndFirst(t *testing.T) {
	s := Of(5, 1, 200, 64)
	if got := s.Attrs(); !reflect.DeepEqual(got, []int{1, 5, 64, 200}) {
		t.Errorf("Attrs = %v", got)
	}
	if s.First() != 1 {
		t.Errorf("First = %d", s.First())
	}
	var empty Set
	if empty.First() != -1 {
		t.Error("First of empty must be -1")
	}
	if len(empty.Attrs()) != 0 {
		t.Error("Attrs of empty must be empty")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := Of(1, 2, 3, 4)
	var seen []int
	s.ForEach(func(a int) bool {
		seen = append(seen, a)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Errorf("seen = %v", seen)
	}
}

func TestUniverse(t *testing.T) {
	u := NewUniverse("C", "T", "S", "H", "R")
	if u.Size() != 5 {
		t.Fatalf("Size = %d", u.Size())
	}
	if i := u.MustIndex("H"); i != 3 {
		t.Errorf("MustIndex(H) = %d", i)
	}
	if _, ok := u.Index("Z"); ok {
		t.Error("Z should be absent")
	}
	if u.Add("C") != 0 {
		t.Error("re-adding C must return index 0")
	}
	s := u.Set("C", "H", "R")
	if got := u.Format(s, ""); got != "CHR" {
		t.Errorf("Format = %q", got)
	}
	if u.All().Len() != 5 {
		t.Error("All wrong")
	}
	if u.Name(99) != "?" {
		t.Error("Name out of range must be ?")
	}
}

func TestUniverseMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUniverse("A").MustIndex("B")
}

func TestLessIsTotalOrder(t *testing.T) {
	sets := []Set{Of(3), Of(1, 2), Of(0), Of(), Of(0, 1, 2)}
	SortSets(sets)
	want := []Set{Of(), Of(0), Of(3), Of(1, 2), Of(0, 1, 2)}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sorted = %v", sets)
	}
}

// randomSet draws a set over a small universe for property tests.
func randomSet(r *rand.Rand) Set {
	var s Set
	n := r.Intn(12)
	for i := 0; i < n; i++ {
		s.Add(r.Intn(MaxAttrs))
	}
	return s
}

// Generate implements quick.Generator so Set can appear in property tests.
func (Set) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomSet(r))
}

func TestQuickUnionCommutes(t *testing.T) {
	f := func(a, b Set) bool { return a.Union(b) == b.Union(a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	f := func(a, b, c Set) bool {
		// c − (a ∪ b) == (c − a) ∩ (c − b)
		return c.Diff(a.Union(b)) == c.Diff(a).Intersect(c.Diff(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetUnionAbsorb(t *testing.T) {
	f := func(a, b Set) bool {
		u := a.Union(b)
		return a.SubsetOf(u) && b.SubsetOf(u) && u.Intersect(a) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickLenUnionInclusionExclusion(t *testing.T) {
	f := func(a, b Set) bool {
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAttrsRoundTrip(t *testing.T) {
	f := func(a Set) bool { return Of(a.Attrs()...) == a }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRankCountsBelow(t *testing.T) {
	f := func(s Set, a uint8) bool {
		n := 0
		for _, b := range s.Attrs() {
			if b < int(a) {
				n++
			}
		}
		return s.Rank(int(a)) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
