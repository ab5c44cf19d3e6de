package engine

import (
	"fmt"
	"testing"
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
