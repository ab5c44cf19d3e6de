package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/maintenance"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/workload"
)

func openUniversity(t testing.TB) *Engine {
	t.Helper()
	s, fds := workload.University()
	e, err := New(s, fds, chase.DefaultCaps)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Fast() {
		t.Fatal("University schema must take the fast path")
	}
	return e
}

func openExample1(t testing.TB) (*Engine, fd.List) {
	t.Helper()
	s, fds := workload.Example1()
	e, err := New(s, fds, chase.DefaultCaps)
	if err != nil {
		t.Fatal(err)
	}
	if e.Fast() {
		t.Fatal("Example 1 schema must take the chase path")
	}
	return e, fds
}

// tuple builds a tuple by interning the names through the engine's dict.
func tuple(e *Engine, names ...string) relation.Tuple {
	t := make(relation.Tuple, len(names))
	for i, n := range names {
		t[i] = e.Dict().Value(n)
	}
	return t
}

func TestEngineFastInsertAndReject(t *testing.T) {
	e := openUniversity(t)
	// COURSE(C,T,D) with C->T, C->D.
	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); err != nil {
		t.Fatal(err)
	}
	// Same course, same teacher: duplicate, accepted as a no-op.
	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); err != nil {
		t.Fatal(err)
	}
	// Same course, different teacher: violates C->T.
	err := e.Insert(0, tuple(e, "cs101", "smith", "cs"))
	if !errors.Is(err, maintenance.ErrViolation) {
		t.Fatalf("want violation, got %v", err)
	}
	if got := e.Rows(); got != 1 {
		t.Fatalf("Rows = %d, want 1", got)
	}
	st := e.Snapshot()
	if st.TupleCount() != 1 {
		t.Fatalf("snapshot has %d tuples, want 1", st.TupleCount())
	}
}

func TestEngineChasePath(t *testing.T) {
	e, _ := openExample1(t)
	// The paper's CS402 anomaly: each insert is locally fine, the third
	// makes the state globally unsatisfying and must be rejected.
	if err := e.Insert(0, tuple(e, "cs402", "cs")); err != nil { // CD
		t.Fatal(err)
	}
	if err := e.Insert(1, tuple(e, "cs402", "jones")); err != nil { // CT
		t.Fatal(err)
	}
	err := e.Insert(2, tuple(e, "ee", "jones")) // TD: tuple order is (D,T)
	if !errors.Is(err, maintenance.ErrViolation) {
		t.Fatalf("want violation, got %v", err)
	}
	if got := e.Rows(); got != 2 {
		t.Fatalf("Rows = %d, want 2", got)
	}
}

func TestEngineDeleteUnblocksInsert(t *testing.T) {
	e := openUniversity(t)
	c1 := tuple(e, "cs101", "jones", "cs")
	c2 := tuple(e, "cs101", "smith", "cs")
	if err := e.Insert(0, c1); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(0, c2); !errors.Is(err, maintenance.ErrViolation) {
		t.Fatalf("want violation, got %v", err)
	}
	if ok, err := e.Delete(0, c1); err != nil || !ok {
		t.Fatalf("Delete = %v, %v; want true, nil", ok, err)
	}
	if ok, _ := e.Delete(0, c1); ok {
		t.Fatal("second delete of the same tuple must report absent")
	}
	// With the old binding gone, the previously conflicting tuple fits.
	if err := e.Insert(0, c2); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
}

func TestEngineDeleteRefcount(t *testing.T) {
	// R(A,B,C) with A->B: two tuples witness the same binding a->b; the
	// binding must survive deleting one of them.
	s := schema.MustParse("R(A,B,C)")
	fds := fd.MustParse(s.U, "A -> B")
	e, err := New(s, fds, chase.DefaultCaps)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Fast() {
		t.Fatal("single-relation schema must take the fast path")
	}
	t1 := tuple(e, "a", "b", "c1")
	t2 := tuple(e, "a", "b", "c2")
	conflict := tuple(e, "a", "b2", "c3")
	for _, tp := range []relation.Tuple{t1, t2} {
		if err := e.Insert(0, tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Delete(0, t1); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(0, conflict); !errors.Is(err, maintenance.ErrViolation) {
		t.Fatalf("binding a->b still witnessed by t2; want violation, got %v", err)
	}
	if _, err := e.Delete(0, t2); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(0, conflict); err != nil {
		t.Fatalf("binding fully unwitnessed; insert should pass, got %v", err)
	}
}

func TestEngineBatchAtomicFast(t *testing.T) {
	e := openUniversity(t)
	good := []Op{
		{Scheme: 0, Tuple: tuple(e, "cs101", "jones", "cs")},
		{Scheme: 3, Tuple: tuple(e, "s1", "amy", "y1")},
	}
	if err := e.InsertBatch(good); err != nil {
		t.Fatal(err)
	}
	// Internally inconsistent batch: two teachers for one course. The batch
	// must be rejected wholesale, including its valid first op.
	bad := []Op{
		{Scheme: 3, Tuple: tuple(e, "s2", "bob", "y1")},
		{Scheme: 0, Tuple: tuple(e, "cs200", "jones", "cs")},
		{Scheme: 0, Tuple: tuple(e, "cs200", "smith", "cs")},
	}
	if err := e.InsertBatch(bad); !errors.Is(err, maintenance.ErrViolation) {
		t.Fatalf("want violation, got %v", err)
	}
	if got := e.Rows(); got != 2 {
		t.Fatalf("Rows after rejected batch = %d, want 2 (no partial commit)", got)
	}
	st := e.Snapshot()
	if st.Insts[3].Has(tuple(e, "s2", "bob", "y1")) {
		t.Fatal("rejected batch leaked its first op into the state")
	}
}

func TestEngineBatchAtomicChase(t *testing.T) {
	e, _ := openExample1(t)
	// All three CS402 tuples in one batch: jointly unsatisfiable.
	bad := []Op{
		{Scheme: 0, Tuple: tuple(e, "cs402", "cs")},
		{Scheme: 1, Tuple: tuple(e, "cs402", "jones")},
		{Scheme: 2, Tuple: tuple(e, "ee", "jones")}, // TD: tuple order is (D,T)
	}
	if err := e.InsertBatch(bad); !errors.Is(err, maintenance.ErrViolation) {
		t.Fatalf("want violation, got %v", err)
	}
	if got := e.Rows(); got != 0 {
		t.Fatalf("Rows after rejected batch = %d, want 0", got)
	}
	// A consistent batch commits.
	good := []Op{
		{Scheme: 0, Tuple: tuple(e, "cs402", "cs")},
		{Scheme: 1, Tuple: tuple(e, "cs402", "jones")},
		{Scheme: 2, Tuple: tuple(e, "cs", "jones")},
	}
	if err := e.InsertBatch(good); err != nil {
		t.Fatal(err)
	}
	if got := e.Rows(); got != 3 {
		t.Fatalf("Rows = %d, want 3", got)
	}
}

func TestEngineStats(t *testing.T) {
	e := openUniversity(t)
	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); err != nil {
		t.Fatal(err)
	}
	e.Insert(0, tuple(e, "cs101", "smith", "cs")) // reject
	if ok, _ := e.Delete(0, tuple(e, "cs101", "jones", "cs")); !ok {
		t.Fatal("delete failed")
	}
	stats := e.Stats()
	course := stats[0]
	if course.Relation != "COURSE" {
		t.Fatalf("stats[0].Relation = %s", course.Relation)
	}
	if course.Inserts != 1 || course.Rejects != 1 || course.Deletes != 1 || course.Tuples != 0 {
		t.Fatalf("unexpected stats: %+v", course)
	}
	if course.P50 < 0 || course.P99 < course.P50 {
		t.Fatalf("percentiles out of order: %+v", course)
	}
}

// stress runs parallel inserts/deletes/batches/snapshots; run under -race.
func stress(t *testing.T, e *Engine, relCount int, width func(int) int) {
	const goroutines = 8
	const opsPer = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				scheme := (g + i) % relCount
				w := width(scheme)
				tp := make(relation.Tuple, w)
				for c := range tp {
					// Functional values: attribute value is a function of
					// the seed, so concurrent inserts never conflict.
					tp[c] = e.Dict().Value(fmt.Sprintf("v%d-%d-%d", g, i, c))
				}
				switch i % 5 {
				case 0, 1, 2:
					if err := e.Insert(scheme, tp); err != nil && !errors.Is(err, maintenance.ErrViolation) {
						t.Error(err)
						return
					}
				case 3:
					e.Insert(scheme, tp)
					if _, err := e.Delete(scheme, tp); err != nil {
						t.Error(err)
						return
					}
				case 4:
					snap := e.Snapshot()
					if snap.TupleCount() < 0 {
						t.Error("impossible")
						return
					}
					e.Stats()
					e.Rows()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEngineStressFast(t *testing.T) {
	e := openUniversity(t)
	s := e.Schema()
	stress(t, e, s.Size(), func(i int) int { return s.Attrs(i).Len() })
	// Every shard's bookkeeping must agree with the final state.
	snap := e.Snapshot()
	if int64(snap.TupleCount()) != e.Rows() {
		t.Fatalf("snapshot count %d != Rows %d", snap.TupleCount(), e.Rows())
	}
}

func TestEngineStressChase(t *testing.T) {
	e, fds := openExample1(t)
	s := e.Schema()
	stress(t, e, s.Size(), func(i int) int { return s.Attrs(i).Len() })
	snap := e.Snapshot()
	if int64(snap.TupleCount()) != e.Rows() {
		t.Fatalf("snapshot count %d != Rows %d", snap.TupleCount(), e.Rows())
	}
	// The chase path must have kept the state globally satisfying.
	ok, err := chase.Satisfies(snap, fds, true, chase.DefaultCaps)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("chase-path state lost satisfaction under concurrency")
	}
}

func TestEngineSnapshotImmutable(t *testing.T) {
	e := openUniversity(t)
	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	before := snap.TupleCount()
	if err := e.Insert(0, tuple(e, "cs200", "smith", "cs")); err != nil {
		t.Fatal(err)
	}
	if snap.TupleCount() != before {
		t.Fatal("snapshot mutated by a later insert")
	}
	if snap.Dict.Name(tuple(e, "cs101")[0]) != "cs101" {
		t.Fatal("snapshot dictionary lost value names")
	}
}

// TestApplyMixedBatch pins the one mutation routine's batch contract on
// both admission paths: inserts are admitted before deletes whatever the op
// order (so a delete never unshields an insert of its own batch), a
// violation voids the deletes too, and an accepted batch reaches the hook
// as one commit holding exactly the ops that changed the state.
func TestApplyMixedBatch(t *testing.T) {
	cases := []struct {
		name      string
		open      func(testing.TB) *Engine
		seed      func(e *Engine) []Op
		bad, good func(e *Engine) []Op
		want      func(e *Engine) []Op // the good batch's commit
	}{{
		name: "fast",
		open: openUniversity,
		seed: func(e *Engine) []Op {
			return []Op{
				{Scheme: 0, Tuple: tuple(e, "cs101", "jones", "cs")},
				{Scheme: 3, Tuple: tuple(e, "s1", "amy", "y1")},
			}
		},
		bad: func(e *Engine) []Op {
			return []Op{
				{Scheme: 0, Tuple: tuple(e, "cs101", "jones", "cs"), Delete: true},
				{Scheme: 0, Tuple: tuple(e, "cs101", "smith", "cs")}, // C->T against the row above
			}
		},
		good: func(e *Engine) []Op {
			return []Op{
				{Scheme: 3, Tuple: tuple(e, "s1", "amy", "y1"), Delete: true},
				{Scheme: 0, Tuple: tuple(e, "cs102", "smith", "ee")},
				{Scheme: 0, Tuple: tuple(e, "cs101", "jones", "cs")},          // duplicate
				{Scheme: 3, Tuple: tuple(e, "s9", "zed", "y9"), Delete: true}, // absent
			}
		},
		want: func(e *Engine) []Op {
			return []Op{
				{Scheme: 0, Tuple: tuple(e, "cs102", "smith", "ee")},
				{Scheme: 3, Tuple: tuple(e, "s1", "amy", "y1"), Delete: true},
			}
		},
	}, {
		name: "chase",
		open: func(tb testing.TB) *Engine { e, _ := openExample1(tb); return e },
		seed: func(e *Engine) []Op {
			return []Op{
				{Scheme: 0, Tuple: tuple(e, "cs402", "cs")},    // CD
				{Scheme: 1, Tuple: tuple(e, "cs402", "jones")}, // CT
			}
		},
		bad: func(e *Engine) []Op {
			return []Op{
				{Scheme: 0, Tuple: tuple(e, "cs402", "cs"), Delete: true},
				{Scheme: 2, Tuple: tuple(e, "ee", "jones")}, // TD is (D,T): the CS402 anomaly
			}
		},
		good: func(e *Engine) []Op {
			return []Op{
				{Scheme: 0, Tuple: tuple(e, "cs402", "cs"), Delete: true},
				{Scheme: 2, Tuple: tuple(e, "cs", "jones")},
			}
		},
		want: func(e *Engine) []Op {
			return []Op{
				{Scheme: 2, Tuple: tuple(e, "cs", "jones")},
				{Scheme: 0, Tuple: tuple(e, "cs402", "cs"), Delete: true},
			}
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := c.open(t)
			if err := e.InsertBatch(c.seed(e)); err != nil {
				t.Fatal(err)
			}
			var commits []Commit
			e.SetCommitHook(func(cm Commit) func() error {
				commits = append(commits, cm)
				return nil
			})
			before, v0 := e.Snapshot(), e.Version()
			if _, err := e.Apply(context.Background(), c.bad(e)); !errors.Is(err, maintenance.ErrViolation) {
				t.Fatalf("bad batch: want violation, got %v", err)
			}
			requireStatesEqual(t, "rejected mixed batch", before, e.Snapshot())
			if len(commits) != 0 || e.Version() != v0 {
				t.Fatalf("rejected batch committed: %d commits, version %d -> %d", len(commits), v0, e.Version())
			}

			want := c.want(e)
			changed, err := e.Apply(context.Background(), c.good(e))
			if err != nil || changed != len(want) {
				t.Fatalf("good batch: changed %d err %v, want %d", changed, err, len(want))
			}
			if len(commits) != 1 || e.Version() != v0+1 {
				t.Fatalf("good batch: %d commits, version %d -> %d, want one", len(commits), v0, e.Version())
			}
			got := commits[0].Ops
			if len(got) != len(want) {
				t.Fatalf("commit ops %+v, want %+v", got, want)
			}
			for i := range want {
				if got[i].Scheme != want[i].Scheme || got[i].Delete != want[i].Delete || !got[i].Tuple.Equal(want[i].Tuple) {
					t.Fatalf("commit op %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			var inserts, rejects, deletes uint64
			var tuples int64
			for _, rs := range e.Stats() {
				inserts, rejects, deletes, tuples = inserts+rs.Inserts, rejects+rs.Rejects, deletes+rs.Deletes, tuples+rs.Tuples
			}
			// Seed: two accepted inserts. Bad batch: one rejected insert, its
			// delete not counted. Good batch: every insert op accepted
			// (duplicates included), one delete that removed a tuple.
			goodInserts := uint64(0)
			for _, op := range c.good(e) {
				if !op.Delete {
					goodInserts++
				}
			}
			if inserts != 2+goodInserts || rejects != 1 || deletes != 1 || tuples != 2 || e.Rows() != 2 {
				t.Fatalf("stats: inserts %d rejects %d deletes %d tuples %d rows %d", inserts, rejects, deletes, tuples, e.Rows())
			}
		})
	}
}

func TestEngineMalformedOps(t *testing.T) {
	e := openUniversity(t)
	if err := e.Insert(99, tuple(e, "x")); err == nil {
		t.Fatal("want error for unknown scheme")
	}
	if err := e.Insert(0, tuple(e, "too", "short")); err == nil {
		t.Fatal("want error for wrong arity")
	}
	if _, err := e.Delete(-1, tuple(e, "x")); err == nil {
		t.Fatal("want error for negative scheme")
	}
	if err := e.InsertBatch([]Op{{Scheme: 0, Tuple: tuple(e, "bad")}}); err == nil {
		t.Fatal("want error for malformed batch op")
	}
}

// TestEngineCommitHook verifies the redo-log contract: the hook sees
// exactly the mutations that changed state (no duplicates, no rejects, no
// missed deletes), per-relation hook order matches admission order, wait
// errors surface to callers, and Apply replays the observed commits into
// an identical state.
func TestEngineCommitHook(t *testing.T) {
	e := openUniversity(t)
	var mu sync.Mutex
	var seen []Commit
	e.SetCommitHook(func(c Commit) func() error {
		mu.Lock()
		cp := Commit{Ops: append([]Op(nil), c.Ops...)}
		seen = append(seen, cp)
		mu.Unlock()
		return nil
	})

	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); err != nil {
		t.Fatal(err)
	}
	// Duplicate: no state change, no commit.
	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); err != nil {
		t.Fatal(err)
	}
	// Reject: no commit.
	if err := e.Insert(0, tuple(e, "cs101", "smith", "cs")); err == nil {
		t.Fatal("conflicting insert must fail")
	}
	// Batch: only the two fresh tuples commit (one is a duplicate).
	if err := e.InsertBatch([]Op{
		{Scheme: 0, Tuple: tuple(e, "cs101", "jones", "cs")},
		{Scheme: 0, Tuple: tuple(e, "cs102", "smith", "ee")},
		{Scheme: 3, Tuple: tuple(e, "s1", "ann", "2")},
	}); err != nil {
		t.Fatal(err)
	}
	// Delete present + delete absent: one commit.
	if removed, err := e.Delete(0, tuple(e, "cs102", "smith", "ee")); err != nil || !removed {
		t.Fatalf("delete: %v %v", removed, err)
	}
	if removed, _ := e.Delete(0, tuple(e, "cs102", "smith", "ee")); removed {
		t.Fatal("re-delete must be a no-op")
	}

	if len(seen) != 3 {
		t.Fatalf("hook saw %d commits, want 3: %+v", len(seen), seen)
	}
	if len(seen[0].Ops) != 1 || seen[0].Ops[0].Delete {
		t.Fatalf("first commit: %+v", seen[0])
	}
	if len(seen[1].Ops) != 2 || seen[1].Ops[0].Delete || seen[1].Ops[1].Delete {
		t.Fatalf("batch commit: %+v", seen[1])
	}
	if len(seen[2].Ops) != 1 || !seen[2].Ops[0].Delete {
		t.Fatalf("delete commit: %+v", seen[2])
	}

	// Replaying the observed commits reproduces the state exactly.
	s, fds := workload.University()
	re, err := New(s, fds, chase.DefaultCaps)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range seen {
		if _, err := re.Apply(context.Background(), c.Ops); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	if re.Rows() != e.Rows() {
		t.Fatalf("replay has %d rows, want %d", re.Rows(), e.Rows())
	}
	// Idempotence: applying everything again converges to the same state.
	for _, c := range seen {
		if _, err := re.Apply(context.Background(), c.Ops); err != nil {
			t.Fatalf("re-apply: %v", err)
		}
	}
	if re.Rows() != e.Rows() {
		t.Fatalf("re-applied replay has %d rows, want %d", re.Rows(), e.Rows())
	}
}

// TestEngineCommitHookWaitError checks a failing wait surfaces to the
// caller on every mutating path.
func TestEngineCommitHookWaitError(t *testing.T) {
	e := openUniversity(t)
	boom := errors.New("fsync failed")
	e.SetCommitHook(func(Commit) func() error {
		return func() error { return boom }
	})
	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); !errors.Is(err, boom) {
		t.Fatalf("insert: %v", err)
	}
	if err := e.InsertBatch([]Op{{Scheme: 0, Tuple: tuple(e, "cs102", "smith", "ee")}}); !errors.Is(err, boom) {
		t.Fatalf("batch: %v", err)
	}
	if _, err := e.Delete(0, tuple(e, "cs101", "jones", "cs")); !errors.Is(err, boom) {
		t.Fatalf("delete: %v", err)
	}
}

// TestEngineChaseCommitHook covers the hook on the serialized chase path.
func TestEngineChaseCommitHook(t *testing.T) {
	e, _ := openExample1(t)
	var commits int
	e.SetCommitHook(func(c Commit) func() error {
		commits++
		return nil
	})
	if err := e.Insert(0, tuple(e, "CS402", "CS")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(1, tuple(e, "CS402", "Jones")); err != nil {
		t.Fatal(err)
	}
	// The anomaly is rejected: no commit. TD's tuple order is (D, T) by
	// ascending attribute index, so this is T=Jones (forcing D=EE against
	// CD's D=CS).
	if err := e.Insert(2, tuple(e, "EE", "Jones")); err == nil {
		t.Fatal("anomalous insert must fail on the chase path")
	}
	if removed, err := e.Delete(1, tuple(e, "CS402", "Jones")); err != nil || !removed {
		t.Fatalf("delete: %v %v", removed, err)
	}
	if commits != 3 {
		t.Fatalf("chase path hook saw %d commits, want 3", commits)
	}
}

// TestEngineSnapshotWithCut checks the cut callback runs at a moment that
// exactly separates prior commits from later ones.
func TestEngineSnapshotWithCut(t *testing.T) {
	e := openUniversity(t)
	var logged []Commit
	e.SetCommitHook(func(c Commit) func() error {
		logged = append(logged, c) // hook runs under the stripe locks
		return nil
	})
	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); err != nil {
		t.Fatal(err)
	}
	var atCut int
	st := e.SnapshotWith(func() { atCut = len(logged) })
	if atCut != 1 {
		t.Fatalf("cut saw %d commits, want 1", atCut)
	}
	if st.TupleCount() != 1 {
		t.Fatalf("snapshot has %d tuples, want 1", st.TupleCount())
	}
}
