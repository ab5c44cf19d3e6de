package relation

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"indep/internal/attrset"
)

// rowRef is a straight row-major reference implementation of the instance
// semantics — a plain tuple list with linear scans. The randomized suite
// below drives it in lockstep with the columnar Instance, so the arena
// layout can never change which sequences are accepted or what scans and
// joins return.
type rowRef struct {
	attrs  attrset.Set
	tuples []Tuple
}

func (r *rowRef) find(t Tuple) int {
	for i, u := range r.tuples {
		if u.Equal(t) {
			return i
		}
	}
	return -1
}

func (r *rowRef) add(t Tuple) bool {
	if r.find(t) >= 0 {
		return false
	}
	r.tuples = append(r.tuples, t.Clone())
	return true
}

func (r *rowRef) remove(t Tuple) bool {
	i := r.find(t)
	if i < 0 {
		return false
	}
	r.tuples = append(r.tuples[:i], r.tuples[i+1:]...)
	return true
}

func (r *rowRef) has(t Tuple) bool { return r.find(t) >= 0 }

func (r *rowRef) matching(cols []int, want []Value) []Tuple {
	var out []Tuple
	for _, u := range r.tuples {
		ok := true
		for i, c := range cols {
			if u[c] != want[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, u)
		}
	}
	return out
}

// sortedKeys renders a tuple set canonically for comparison.
func sortedKeys(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		b := make([]byte, 0, 8*len(t))
		for _, v := range t {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func sameTupleSet(t *testing.T, label string, got, want []Tuple) {
	t.Helper()
	g, w := sortedKeys(got), sortedKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d tuples, reference has %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: tuple sets differ at rank %d", label, i)
		}
	}
}

// TestColumnarMatchesRowReference drives random Add/Remove/Has/MatchingRows
// sequences — plus periodic Join/Semijoin/Project checks against a second
// instance — through the columnar layout and the row-major reference in
// lockstep, with enough deletes to keep the free list busy.
func TestColumnarMatchesRowReference(t *testing.T) {
	r := rand.New(rand.NewSource(1982))
	for trial := 0; trial < 10; trial++ {
		width := 1 + r.Intn(4)
		var attrs attrset.Set
		for a := 0; a < width; a++ {
			attrs.Add(a)
		}
		// Second relation overlapping on the last attribute of the first.
		var battrs attrset.Set
		battrs.Add(width - 1)
		battrs.Add(width)
		in, ref := NewInstance(attrs), &rowRef{attrs: attrs}
		bi, bref := NewInstance(battrs), &rowRef{attrs: battrs}
		randTuple := func(w int) Tuple {
			tu := make(Tuple, w)
			for c := range tu {
				tu[c] = Value(r.Intn(5)) // small domain to force repeats
			}
			return tu
		}
		for step := 0; step < 1500; step++ {
			tu := randTuple(width)
			switch r.Intn(5) {
			case 0:
				if got, want := in.Add(tu), ref.add(tu); got != want {
					t.Fatalf("trial %d step %d: Add(%v) = %v, reference %v", trial, step, tu, got, want)
				}
			case 1:
				if got, want := in.Remove(tu), ref.remove(tu); got != want {
					t.Fatalf("trial %d step %d: Remove(%v) = %v, reference %v", trial, step, tu, got, want)
				}
			case 2:
				if got, want := in.Has(tu), ref.has(tu); got != want {
					t.Fatalf("trial %d step %d: Has(%v) = %v, reference %v", trial, step, tu, got, want)
				}
			case 3:
				btu := randTuple(2)
				if r.Intn(3) == 0 {
					if got, want := bi.Remove(btu), bref.remove(btu); got != want {
						t.Fatalf("trial %d step %d: b.Remove mismatch", trial, step)
					}
				} else if got, want := bi.Add(btu), bref.add(btu); got != want {
					t.Fatalf("trial %d step %d: b.Add mismatch", trial, step)
				}
			default:
				nc := 1 + r.Intn(width)
				cols := r.Perm(width)[:nc]
				want := make([]Value, nc)
				for i := range want {
					want[i] = Value(r.Intn(5))
				}
				slots := in.MatchingRows(cols, want)
				got := make([]Tuple, 0, len(slots))
				for _, s := range slots {
					got = append(got, in.AppendRow(nil, s))
				}
				sameTupleSet(t, "MatchingRows", got, ref.matching(cols, want))
			}
			if in.Len() != len(ref.tuples) {
				t.Fatalf("trial %d step %d: Len = %d, reference %d", trial, step, in.Len(), len(ref.tuples))
			}
			if step%250 == 249 {
				sameTupleSet(t, "Rows", in.Rows(), ref.tuples)
				// Join/Semijoin against the overlapping relation: the
				// reference result is computed by definition (nested loops).
				var refJoin, refSemi []Tuple
				for _, ta := range ref.tuples {
					hit := false
					for _, tb := range bref.tuples {
						if ta[width-1] == tb[0] {
							hit = true
							refJoin = append(refJoin, append(ta.Clone(), tb[1]))
						}
					}
					if hit {
						refSemi = append(refSemi, ta)
					}
				}
				sameTupleSet(t, "Join", Join(in, bi).Rows(), dedupe(refJoin))
				sameTupleSet(t, "Semijoin", Semijoin(in, bi).Rows(), refSemi)
				proj := in.Project(attrset.Of(0))
				refProj := &rowRef{}
				for _, ta := range ref.tuples {
					refProj.add(Tuple{ta[0]})
				}
				sameTupleSet(t, "Project", proj.Rows(), refProj.tuples)
			}
		}
		// SnapshotCols must round-trip the live rows exactly.
		cols, n := in.SnapshotCols()
		if n != in.Len() {
			t.Fatalf("trial %d: SnapshotCols rows = %d, Len = %d", trial, n, in.Len())
		}
		back := NewInstance(attrs)
		for r := 0; r < n; r++ {
			row := make(Tuple, len(cols))
			for c := range cols {
				row[c] = cols[c][r]
			}
			back.Add(row)
		}
		sameTupleSet(t, "SnapshotCols", back.Rows(), ref.tuples)
	}
}

func dedupe(ts []Tuple) []Tuple {
	seen := make(map[string]bool)
	var out []Tuple
	for _, t := range ts {
		k := sortedKeys([]Tuple{t})[0]
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// TestColumnarSnapshotReadDuringWrite pins the concurrency contract under
// -race: readers scan an immutable Clone (columns, MatchingRows, LiveRows)
// while a writer keeps mutating the original instance's arenas. The clone
// shares no storage, so the race detector stays quiet and every read sees
// a frozen state.
func TestColumnarSnapshotReadDuringWrite(t *testing.T) {
	var attrs attrset.Set
	for a := 0; a < 4; a++ {
		attrs.Add(a)
	}
	in := NewInstance(attrs)
	for i := 0; i < 1000; i++ {
		in.Add(Tuple{Value(i), Value(i % 7), Value(i % 3), Value(i % 11)})
	}
	snap := in.Clone()
	wantLen := snap.Len()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() { // writer: churn the original, including slot reuse
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tu := Tuple{Value(i % 500), Value(i % 7), Value(i % 3), Value(i % 11)}
			if i%2 == 0 {
				in.Remove(tu)
			} else {
				in.Add(tu)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				if got := len(snap.LiveRows()); got != wantLen {
					t.Errorf("reader %d: LiveRows = %d, want %d", r, got, wantLen)
					return
				}
				slots := snap.MatchingRows([]int{1}, []Value{Value(k % 7)})
				for _, s := range slots {
					if snap.At(s, 1) != Value(k%7) {
						t.Errorf("reader %d: bad match at slot %d", r, s)
						return
					}
				}
				col := snap.Col(0)
				live := snap.LiveMask()
				n := 0
				for s := range col {
					if live[s] {
						n++
					}
				}
				if n != wantLen {
					t.Errorf("reader %d: column scan saw %d live rows, want %d", r, n, wantLen)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-writerDone
}
