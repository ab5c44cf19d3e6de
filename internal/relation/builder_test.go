package relation

import (
	"math/rand"
	"testing"

	"indep/internal/attrset"
)

// TestBuilderMatchesAdd appends random rows, many repeated, through a
// distinct Builder sized too small (so its arena grows and its table
// rehashes) and through Instance.Add: both keep the same rows in the same
// order. The built instance has no primary index until a probe builds it,
// and then answers Has, Add and Remove as any instance does.
func TestBuilderMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	attrs := attrset.Of(0, 2, 5)
	for _, n := range []int{0, 1, 2, 7, 100, 3000} {
		b := NewBuilder(3, n/10, true)
		want := NewInstance(attrs)
		for i := 0; i < n; i++ {
			tu := Tuple{Value(r.Intn(5)), Value(r.Intn(6)), Value(r.Intn(40))}
			if got, added := b.Append(tu), want.Add(tu); got != added {
				t.Fatalf("n=%d: Append(%v) = %v, Add = %v", n, tu, got, added)
			}
		}
		got := b.Instance(attrs)
		if got.Len() != want.Len() {
			t.Fatalf("n=%d: builder holds %d rows, instance %d", n, got.Len(), want.Len())
		}
		if got.posReady.Load() {
			t.Fatalf("n=%d: a built instance carries a primary index", n)
		}
		gr, wr := got.Rows(), want.Rows()
		if len(gr) != len(wr) {
			t.Fatalf("n=%d: built %d rows, want %d", n, len(gr), len(wr))
		}
		for i := range gr {
			if !gr[i].Equal(wr[i]) {
				t.Fatalf("n=%d: row %d is %v, want %v", n, i, gr[i], wr[i])
			}
			if !got.Has(wr[i]) {
				t.Fatalf("n=%d: built instance lacks %v", n, wr[i])
			}
		}
		if got.Add(Tuple{9, 9, 99}) != true || got.Add(Tuple{9, 9, 99}) || !got.Remove(Tuple{9, 9, 99}) {
			t.Fatalf("n=%d: a built instance mutates wrongly", n)
		}
		if got.Len() != want.Len() {
			t.Fatalf("n=%d: %d rows after add and remove, want %d", n, got.Len(), want.Len())
		}
	}
}

// TestBuilderKeepsRowsAsGiven: a builder that is not distinct keeps every
// row, equal ones too; Reset empties it for another width.
func TestBuilderKeepsRowsAsGiven(t *testing.T) {
	b := NewBuilder(2, 1, false)
	for i := 0; i < 5; i++ {
		if !b.Append(Tuple{1, 2}) {
			t.Fatal("a builder that is not distinct dropped a row")
		}
	}
	if n := b.Instance(attrset.Of(0, 1)).Len(); n != 5 {
		t.Fatalf("holds %d rows, want 5", n)
	}
	b.Reset(1, 4, true)
	for _, v := range []Value{3, 4, 3, 4, 5} {
		b.Append(Tuple{v})
	}
	if got := b.Instance(attrset.Of(7)).Rows(); len(got) != 3 || got[0][0] != 3 || got[1][0] != 4 || got[2][0] != 5 {
		t.Fatalf("after Reset: rows %v, want [[3] [4] [5]]", got)
	}
	zero := NewBuilder(0, 0, true) // a key of no columns: every row is the first
	if !zero.Append(Tuple{}) || zero.Append(Tuple{}) || zero.Instance(attrset.Set{}).Len() != 1 {
		t.Fatal("a zero-width distinct builder must keep exactly one row")
	}
}

// TestBuilderAllocsFlat pins a distinct builder given its size to two
// allocations, its arena and its table, at 100 rows as at 10,000.
func TestBuilderAllocsFlat(t *testing.T) {
	row := Tuple{1, 2, 3}
	count := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			b := NewBuilder(3, n, true)
			for i := 0; i < n; i++ {
				row[0] = Value(i)
				b.Append(row)
			}
		})
	}
	if small, large := count(100), count(10000); small != large || small > 2 {
		t.Fatalf("a sized distinct builder allocates %v times at 100 rows, %v at 10,000, want 2", small, large)
	}
}
