package engine

import (
	"fmt"
	"runtime"
	"testing"

	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/relation"
	"indep/internal/schema"
)

// TestDictInternSteadyStateAllocs pins the engine's dictionary, the one
// every insert interns through: re-interning or looking up a known name
// must not allocate once the engine has adopted it.
func TestDictInternSteadyStateAllocs(t *testing.T) {
	d := openUniversity(t).Dict()
	for i := 0; i < 256; i++ {
		d.Value(fmt.Sprintf("name-%d", i))
	}
	if n := testing.AllocsPerRun(200, func() { d.Value("name-73") }); n != 0 {
		t.Errorf("re-interning a known name allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(200, func() { d.Lookup("name-73") }); n != 0 {
		t.Errorf("Lookup allocates %v per run", n)
	}
}

// TestSnapshotAllocsFlatInDictSize pins a snapshot cut's cost to the state,
// not the dictionary: snapshots share the engine's append-only dictionary
// instead of copying it, so a cut allocates the same with about 1k interned
// names as with about 20k.
func TestSnapshotAllocsFlatInDictSize(t *testing.T) {
	e := openUniversity(t)
	for i := 0; i < 50; i++ {
		if err := e.Insert(0, tuple(e, fmt.Sprintf("c%d", i), fmt.Sprintf("t%d", i%7), fmt.Sprintf("d%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	intern := func(n int) {
		for i := e.Dict().Len(); i < n; i++ {
			e.Dict().Value(fmt.Sprintf("name-%d", i))
		}
	}
	intern(1000)
	small := testing.AllocsPerRun(20, func() { e.Snapshot() })
	intern(20000)
	large := testing.AllocsPerRun(20, func() { e.Snapshot() })
	if large != small {
		t.Fatalf("a snapshot cut allocates %v with %d names but %v with 1000: it must not copy the dictionary", large, e.Dict().Len(), small)
	}
}

// TestSnapshotAllocBytesColumnsOnly pins what a cut copies while it holds
// every stripe lock: a snapshot of a 20k-row relation allocates its
// columns, its live mask and its free list, plus a small constant for the
// page rounding of those three and the state's headers. Its primary index
// would add hundreds of kilobytes.
func TestSnapshotAllocBytesColumnsOnly(t *testing.T) {
	s := schema.MustParse("R(A,B,C)")
	e, err := New(s, fd.MustParse(s.U, "A -> B"), chase.DefaultCaps)
	if err != nil {
		t.Fatal(err)
	}
	const rows, vacated = 20000, 100
	ops := make([]Op, 0, 1000)
	for i := 0; i < rows; i++ {
		ops = append(ops, Op{Scheme: 0, Tuple: relation.Tuple{relation.Value(i), relation.Value(i % 97), relation.Value(i % 13)}})
		if len(ops) == cap(ops) {
			if err := e.InsertBatch(ops); err != nil {
				t.Fatal(err)
			}
			ops = ops[:0]
		}
	}
	for i := 0; i < vacated; i++ {
		if _, err := e.Delete(0, relation.Tuple{relation.Value(i), relation.Value(i % 97), relation.Value(i % 13)}); err != nil {
			t.Fatal(err)
		}
	}
	arrays := uint64(rows*3*8 + rows + vacated*4)
	const slack = 16 << 10
	const cuts = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cuts; i++ {
		e.Snapshot()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / cuts; got > arrays+slack {
		t.Fatalf("a cut allocates %d bytes, want at most %d for the columns, live mask and free list plus %d", got, arrays, slack)
	}
}
