package relation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"indep/internal/attrset"
)

// The binary-key promise: membership probes, duplicate adds, and warmed
// secondary-index probes never allocate. These assertions are what keeps
// fmt-built string keys from creeping back onto the hot path.

func TestInstanceProbesAllocationFree(t *testing.T) {
	in := NewInstance(attrset.Of(0, 1, 2))
	for i := 0; i < 256; i++ {
		in.Add(Tuple{Value(i), Value(i % 7), Value(i % 3)})
	}
	probe := Tuple{5, 5, 2}
	absent := Tuple{-9, -9, -9}
	if n := testing.AllocsPerRun(200, func() { in.Has(probe) }); n != 0 {
		t.Errorf("Has (present) allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(200, func() { in.Has(absent) }); n != 0 {
		t.Errorf("Has (absent) allocates %v per run", n)
	}
	dup := Tuple{1, 1, 1}
	in.Add(dup)
	if n := testing.AllocsPerRun(200, func() { in.Add(dup) }); n != 0 {
		t.Errorf("duplicate Add allocates %v per run", n)
	}
}

// The pin holds for an instance with its own indexes and for a snapshot
// that inherits its root's: a probe of a bucket the successor rebuilt and
// one of a bucket it shares with the root.
func TestMatchingRowsSteadyStateAllocationFree(t *testing.T) {
	in := NewInstance(attrset.Of(0, 1))
	for i := 0; i < 128; i++ {
		in.Add(Tuple{Value(i % 16), Value(i)})
	}
	root := in.Snapshot(nil)
	root.MatchingRows([]int{0}, []Value{0})
	in.Add(Tuple{3, 1000})
	succ := in.Snapshot(root)
	for _, c := range []struct {
		name string
		in   *Instance
		want Value
	}{{"own index", in, 3}, {"rebuilt bucket", succ, 3}, {"root's bucket", succ, 4}} {
		cols := []int{0}
		want := []Value{c.want}
		c.in.MatchingRows(cols, want) // build the index
		if n := testing.AllocsPerRun(200, func() { c.in.MatchingRows(cols, want) }); n != 0 {
			t.Errorf("%s: warmed MatchingRows probe allocates %v per run", c.name, n)
		}
		c.in.LiveRows() // build the live-slot cache
		if n := testing.AllocsPerRun(200, func() { c.in.MatchingRows(nil, nil) }); n != 0 {
			t.Errorf("%s: warmed full-scan probe allocates %v per run", c.name, n)
		}
	}
	if succ.root.Load() != root {
		t.Fatal("the successor must inherit its root's index")
	}
}

// Interning an already-known name is a read-locked map hit, and Name takes
// no lock: every tuple value of every insert goes through Value and every
// rendered cell through Name, so neither may allocate in steady state.
func TestDictInternSteadyStateAllocationFree(t *testing.T) {
	d := &Dict{}
	for i := 0; i < 64; i++ {
		d.Value(fmt.Sprintf("name-%d", i))
	}
	if n := testing.AllocsPerRun(200, func() { d.Value("name-17") }); n != 0 {
		t.Errorf("re-interning a known name allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(200, func() { d.Lookup("name-17") }); n != 0 {
		t.Errorf("Lookup allocates %v per run", n)
	}
	v := d.Value("name-17")
	if n := testing.AllocsPerRun(200, func() { d.Name(v) }); n != 0 {
		t.Errorf("Name of a bound value allocates %v per run", n)
	}
}

// stringSet is the seed's string-keyed tuple set, kept here as the
// reference semantics for the randomized cross-check below.
type stringSet struct {
	m map[string]bool
}

func (s *stringSet) key(t Tuple) string {
	var b strings.Builder
	for _, v := range t {
		fmt.Fprintf(&b, "%d|", int64(v))
	}
	return b.String()
}

func (s *stringSet) add(t Tuple) bool {
	k := s.key(t)
	if s.m[k] {
		return false
	}
	s.m[k] = true
	return true
}

func (s *stringSet) remove(t Tuple) bool {
	k := s.key(t)
	if !s.m[k] {
		return false
	}
	delete(s.m, k)
	return true
}

func (s *stringSet) has(t Tuple) bool { return s.m[s.key(t)] }

// TestHashedIndexMatchesStringIndex drives random Add/Remove/Has sequences
// through the hashed instance index and the old string-keyed reference in
// lockstep: every answer must agree, so the representation change can never
// change which insert sequences are accepted.
func TestHashedIndexMatchesStringIndex(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		width := 1 + r.Intn(4)
		var attrs attrset.Set
		for a := 0; a < width; a++ {
			attrs.Add(a)
		}
		in := NewInstance(attrs)
		ref := &stringSet{m: make(map[string]bool)}
		for step := 0; step < 2000; step++ {
			tu := make(Tuple, width)
			for c := range tu {
				tu[c] = Value(r.Intn(6)) // small domain to force repeats
			}
			switch r.Intn(3) {
			case 0:
				if got, want := in.Add(tu), ref.add(tu); got != want {
					t.Fatalf("trial %d step %d: Add(%v) = %v, reference %v", trial, step, tu, got, want)
				}
			case 1:
				if got, want := in.Remove(tu), ref.remove(tu); got != want {
					t.Fatalf("trial %d step %d: Remove(%v) = %v, reference %v", trial, step, tu, got, want)
				}
			default:
				if got, want := in.Has(tu), ref.has(tu); got != want {
					t.Fatalf("trial %d step %d: Has(%v) = %v, reference %v", trial, step, tu, got, want)
				}
			}
			if in.Len() != len(ref.m) {
				t.Fatalf("trial %d step %d: Len = %d, reference %d", trial, step, in.Len(), len(ref.m))
			}
		}
	}
}

// TestMatchingRowsMatchesScan cross-checks the secondary hash index
// against a straight scan on random data and random column subsets,
// interleaving deletes so vacated slots can never surface as matches.
func TestMatchingRowsMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := NewInstance(attrset.Of(0, 1, 2, 3))
	for i := 0; i < 500; i++ {
		in.Add(Tuple{Value(r.Intn(5)), Value(r.Intn(5)), Value(r.Intn(5)), Value(r.Intn(5))})
	}
	for q := 0; q < 200; q++ {
		if q%10 == 5 { // churn the free list between probe batches
			in.Remove(Tuple{Value(r.Intn(5)), Value(r.Intn(5)), Value(r.Intn(5)), Value(r.Intn(5))})
			in.Add(Tuple{Value(r.Intn(5)), Value(r.Intn(5)), Value(r.Intn(5)), Value(r.Intn(5))})
		}
		nc := 1 + r.Intn(3)
		cols := r.Perm(4)[:nc]
		want := make([]Value, nc)
		for i := range want {
			want[i] = Value(r.Intn(5))
		}
		got := in.MatchingRows(cols, want)
		n := 0
		for _, tu := range in.Rows() {
			ok := true
			for i, c := range cols {
				if tu[c] != want[i] {
					ok = false
					break
				}
			}
			if ok {
				n++
			}
		}
		if len(got) != n {
			t.Fatalf("query %d cols=%v want=%v: %d matches, scan says %d", q, cols, want, len(got), n)
		}
		for _, s := range got {
			if !in.Alive(s) {
				t.Fatalf("query %d: matched a dead slot %d", q, s)
			}
			for i, c := range cols {
				if in.At(s, c) != want[i] {
					t.Fatalf("query %d: slot %d does not match cols=%v want=%v", q, s, cols, want)
				}
			}
		}
	}
}
