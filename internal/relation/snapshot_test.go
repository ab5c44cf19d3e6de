package relation

import (
	"math/rand"
	"slices"
	"testing"

	"indep/internal/attrset"
)

// scanMatches is the reference for MatchingRows: the live slots of in
// agreeing with want at cols, in ascending order, by a straight scan.
func scanMatches(in *Instance, cols []int, want []Value) []int32 {
	var out []int32
	for s, alive := range in.live {
		if alive && in.matchesRow(int32(s), cols, want) {
			out = append(out, int32(s))
		}
	}
	return out
}

// rowsAt materializes the rows at slots, sorted, so two instances holding
// the same rows at different slots compare equal.
func rowsAt(in *Instance, slots []int32) [][]Value {
	out := make([][]Value, len(slots))
	for i, s := range slots {
		out[i] = in.AppendRow(nil, s)
	}
	slices.SortFunc(out, slices.Compare[[]Value])
	return out
}

// fresh builds a new instance holding in's rows, indexes and all from
// scratch: the answer a snapshot that inherits nothing gives.
func fresh(in *Instance) *Instance {
	out := NewInstance(in.Attrs)
	for _, t := range in.Rows() {
		out.Add(t)
	}
	return out
}

// checkProbe compares one probe on in against a scan of in (exact slots, in
// order) and against a freshly built copy of in (the same rows).
func checkProbe(t *testing.T, what string, in *Instance, cols []int, want []Value) {
	t.Helper()
	got := in.MatchingRows(cols, want)
	if ref := scanMatches(in, cols, want); !slices.Equal(got, ref) {
		t.Fatalf("%s: MatchingRows(%v, %v) = %v, scan %v", what, cols, want, got, ref)
	}
	f := fresh(in)
	if a, b := rowsAt(in, got), rowsAt(f, f.MatchingRows(cols, want)); !slices.EqualFunc(a, b, slices.Equal[[]Value]) {
		t.Fatalf("%s: MatchingRows(%v, %v) rows %v, fresh instance %v", what, cols, want, a, b)
	}
	if live := in.LiveRows(); !slices.Equal(live, scanMatches(in, nil, nil)) {
		t.Fatalf("%s: LiveRows = %v", what, live)
	}
}

// FuzzSnapshotSuccessor drives a history of adds, removes and cuts over one
// three-column instance. The input's first byte picks the probe column sets;
// the rest is the history, two bytes an event. Every cut snapshots the live
// instance as the successor of the previous cut, probes it, and probes the
// previous cuts again, so roots build indexes after their successors exist.
// Each probe must equal a scan and a freshly built instance. Long runs of
// writes between cuts push a successor past rerootShare, so re-rooting is
// exercised alongside inheritance.
func FuzzSnapshotSuccessor(f *testing.F) {
	f.Add([]byte{0x07, 0, 1, 0, 2, 0, 3, 3, 0, 2, 1, 3, 0})
	long := []byte{0x05}
	for i := 0; i < 60; i++ {
		long = append(long, 0, byte(i))
	}
	long = append(long, 3, 0, 2, 5, 0, 200, 3, 0)
	for i := 0; i < 40; i++ {
		long = append(long, 2, byte(i*3))
	}
	long = append(long, 3, 1, 1, 9, 3, 0)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		colSets := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}
		var probes [][]int
		for i, cs := range colSets {
			if data[0]&(1<<i) != 0 {
				probes = append(probes, cs)
			}
		}
		live := NewInstance(attrset.Of(0, 1, 2))
		var cuts []*Instance
		tuple := func(b byte) Tuple { return Tuple{Value(b % 7), Value(b / 7 % 5), Value(b / 35)} }
		for i := 1; i+1 < len(data); i += 2 {
			switch arg := data[i+1]; data[i] % 4 {
			case 0, 1:
				live.Add(tuple(arg))
			case 2:
				live.Remove(tuple(arg))
			case 3:
				var prev *Instance
				if len(cuts) > 0 {
					prev = cuts[len(cuts)-1]
				}
				cuts = append(cuts, live.Snapshot(prev))
				for k := len(cuts) - 1; k >= 0 && k >= len(cuts)-3; k-- {
					if arg&1 != 0 && k < len(cuts)-1 {
						continue // leave some predecessors unprobed
					}
					for _, cols := range probes {
						want := tuple(arg + byte(k))
						checkProbe(t, "cut", cuts[k], cols, want[:len(cols)])
					}
				}
			}
		}
	})
}

// TestSnapshotSuccessorInheritsAndReroots pins both sides of rerootShare: a
// successor that differs from its root in a few rows inherits the root's
// index, sharing every bucket those rows do not touch, and one that differs
// in more than an eighth of its rows builds its own and becomes the next
// snapshot's root.
func TestSnapshotSuccessorInheritsAndReroots(t *testing.T) {
	live := NewInstance(attrset.Of(0, 1))
	for i := 0; i < 800; i++ {
		live.Add(Tuple{Value(i % 40), Value(i)})
	}
	root := live.Snapshot(nil)
	cols := []int{0}
	root.MatchingRows(cols, []Value{1})

	live.Remove(Tuple{3, 3})
	live.Add(Tuple{3, 10000})  // reuses slot 3
	live.Add(Tuple{41, 10001}) // a new key, in slot 800
	live.Add(Tuple{5, 10002})  // an old key, in slot 801
	live.Remove(Tuple{8, 8})   // slot 8 dead, its values still in place
	small := live.Snapshot(root)
	for k := Value(0); k < 42; k++ {
		checkProbe(t, "small change", small, cols, []Value{k})
	}
	idx := small.index(cols)
	if small.root.Load() != root || idx.base != root.index(cols) || len(idx.touched) != 4 {
		t.Fatalf("a 4-slot change: root %p (want %p), %d touched buckets (want 4)", small.root.Load(), root, len(idx.touched))
	}
	next := live.Snapshot(small)
	if next.root.Load() != root {
		t.Fatal("a successor of an inheriting snapshot must inherit from its root")
	}

	for i := 0; i < 120; i++ {
		live.Remove(Tuple{Value(i % 40), Value(i)})
	}
	large := live.Snapshot(small)
	for k := Value(0); k < 42; k++ {
		checkProbe(t, "large change", large, cols, []Value{k})
	}
	if large.root.Load() != nil || large.index(cols).base != nil {
		t.Fatal("a change past rerootShare must build its own index")
	}
	if after := live.Snapshot(large); after.root.Load() != large {
		t.Fatal("a re-rooted snapshot must be the root of the next one")
	}
}

// TestSuccessorMutationDropsInheritance mutates inheriting successors, as a
// caller holding a mutable copy may: Add and Remove must drop the root with
// the indexes, so every later probe, LiveRows and membership test answers
// from the instance's own rows, as a freshly built instance does.
func TestSuccessorMutationDropsInheritance(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	live := NewInstance(attrset.Of(0, 1, 2))
	row := func() Tuple { return Tuple{Value(r.Intn(6)), Value(r.Intn(6)), Value(r.Intn(6))} }
	for i := 0; i < 150; i++ {
		live.Add(row())
	}
	root := live.Snapshot(nil)
	root.MatchingRows([]int{0}, []Value{0})
	for trial := 0; trial < 20; trial++ {
		live.Add(row())
		live.Remove(row())
		succ := live.Snapshot(root)
		succ.MatchingRows([]int{0}, []Value{0})
		succ.MatchingRows([]int{1, 2}, []Value{0, 0})
		for i := 0; i < 5; i++ {
			if i%2 == 0 {
				succ.Add(row())
			} else {
				succ.Remove(row())
			}
		}
		if succ.root.Load() != nil || succ.dirty != nil {
			t.Fatalf("trial %d: a mutated successor keeps its root", trial)
		}
		for _, cols := range [][]int{{0}, {1, 2}, {0, 1, 2}} {
			for k := 0; k < 6; k++ {
				want := []Value{Value(k), Value(5 - k), Value(k / 2)}
				checkProbe(t, "mutated successor", succ, cols, want[:len(cols)])
			}
		}
		f := fresh(succ)
		for k := 0; k < 50; k++ {
			if tu := row(); succ.Has(tu) != f.Has(tu) {
				t.Fatalf("trial %d: Has(%v) = %v, fresh %v", trial, tu, succ.Has(tu), f.Has(tu))
			}
		}
	}
}

// TestSnapshotBuildsPrimaryIndexOnProbe: a snapshot copies no primary index,
// and builds a correct one on its first membership probe, concurrently
// probed or not (run under -race).
func TestSnapshotBuildsPrimaryIndexOnProbe(t *testing.T) {
	live := NewInstance(attrset.Of(0, 1))
	for i := 0; i < 300; i++ {
		live.Add(Tuple{Value(i % 17), Value(i)})
	}
	live.Remove(Tuple{5, 5})
	snap := live.Snapshot(nil)
	if snap.posReady.Load() || snap.pos != nil {
		t.Fatal("a snapshot must not copy the primary index")
	}
	done := make(chan bool, 4)
	for g := 0; g < 4; g++ {
		go func() {
			ok := true
			for i := 0; i < 300; i++ {
				if snap.Has(Tuple{Value(i % 17), Value(i)}) != (i != 5) {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Fatal("a snapshot's membership probes disagree with its rows")
		}
	}
}
