package indep

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func mustStore(t *testing.T, schemaSrc, fdSrc string) *ConcurrentStore {
	t.Helper()
	cs, err := MustParse(schemaSrc, fdSrc).OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func seedUniversity(t *testing.T, cs *ConcurrentStore) {
	t.Helper()
	for _, op := range []BatchOp{
		{Rel: "CT", Row: map[string]string{"C": "cs101", "T": "jones"}},
		{Rel: "CT", Row: map[string]string{"C": "cs102", "T": "curie"}},
		{Rel: "CS", Row: map[string]string{"C": "cs101", "S": "ada"}},
		{Rel: "CS", Row: map[string]string{"C": "cs101", "S": "bob"}},
		{Rel: "CS", Row: map[string]string{"C": "cs999", "S": "eve"}},
		{Rel: "CHR", Row: map[string]string{"C": "cs101", "H": "mon9", "R": "r12"}},
	} {
		if err := cs.Insert(op.Rel, op.Row); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentStoreWindow(t *testing.T) {
	cs := mustStore(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	seedUniversity(t, cs)

	// Cross-relation window: each student with the teacher of their course.
	res, err := cs.Window("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if !res.FastPath {
		t.Fatal("independent schema must use the fast path")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("window [S T] = %v", res.Rows)
	}
	// Rows are sorted by value, so the result is deterministic.
	if res.Rows[0]["S"] != "ada" || res.Rows[0]["T"] != "jones" {
		t.Fatalf("window [S T] rows: %v", res.Rows)
	}

	// Selection + projection + limit.
	res, err = cs.Query(WindowQuery{
		Attrs:   []string{"C", "S", "T"},
		Where:   map[string]string{"T": "jones"},
		Project: []string{"S"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0]["S"] != "ada" || res.Rows[1]["S"] != "bob" {
		t.Fatalf("jones' students: %v", res.Rows)
	}
	res, err = cs.Query(WindowQuery{Attrs: []string{"C", "S"}, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Total != 3 {
		t.Fatalf("limited window: rows=%v total=%d", res.Rows, res.Total)
	}

	// A value the store has never seen matches nothing (and must not
	// intern, i.e. later queries still see nothing).
	res, err = cs.Query(WindowQuery{
		Attrs: []string{"C", "T"},
		Where: map[string]string{"T": "nobody"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("unseen value matched: %v", res.Rows)
	}

	// Errors: unknown attribute, Where outside the window, Project not a
	// subset, empty attribute set.
	if _, err := cs.Window("NOPE"); err == nil {
		t.Fatal("unknown attribute must be rejected")
	}
	if _, err := cs.Query(WindowQuery{Attrs: []string{"C"}, Where: map[string]string{"T": "x"}}); err == nil {
		t.Fatal("Where outside the window must be rejected")
	}
	if _, err := cs.Query(WindowQuery{Attrs: []string{"C"}, Project: []string{"T"}}); err == nil {
		t.Fatal("Project outside the window must be rejected")
	}
	if _, err := cs.Query(WindowQuery{}); err == nil {
		t.Fatal("empty attribute set must be rejected")
	}

	qs := cs.QueryStats()
	if qs.Queries == 0 || qs.FastEvals == 0 {
		t.Fatalf("query stats: %+v", qs)
	}
}

func TestDatabaseWindow(t *testing.T) {
	// Snapshot of a store answers windows through the same public API.
	cs := mustStore(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	seedUniversity(t, cs)
	snap := cs.Snapshot()
	res, err := snap.Window("C", "S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !res.FastPath {
		t.Fatalf("snapshot window: %v fast=%v", res.Rows, res.FastPath)
	}

	// Non-independent schema: the chase fallback answers through the JD
	// rule (A -> C is not embedded in any scheme).
	sch := MustParse("AB(A,B); BC(B,C)", "A -> C")
	db := sch.NewDatabase()
	if err := db.Insert("AB", map[string]string{"A": "a1", "B": "b1"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("BC", map[string]string{"B": "b1", "C": "c1"}); err != nil {
		t.Fatal(err)
	}
	res, err = db.Window("A", "C")
	if err != nil {
		t.Fatal(err)
	}
	if res.FastPath {
		t.Fatal("non-independent schema must fall back to the chase")
	}
	if len(res.Rows) != 1 || res.Rows[0]["A"] != "a1" || res.Rows[0]["C"] != "c1" {
		t.Fatalf("window [A C] = %v", res.Rows)
	}
}

// TestWindowReadDuringWriteRace asserts (under -race) that a window always
// reflects a consistent snapshot. Writers insert the two halves of each
// entity atomically — A(K_i, X_i) and B(K_i, Y_i) in one batch — so in
// every consistent cut a key is either fully present or fully absent. A
// torn read would surface as a K that appears in the window [K] but not in
// the window [K X Y] (its extension would hit a missing half). One more
// writer moves the single row of M — insert the new row and delete the old
// one in one binary batch payload, which is one commit — so a reader must
// always see exactly one M row, never both and never neither.
func TestWindowReadDuringWriteRace(t *testing.T) {
	cs := mustStore(t, "A(K,X); B(K,Y); M(P,Q)", "K -> X; K -> Y")
	if !cs.FastPath() {
		t.Fatal("test schema should be independent")
	}
	const writers, perWriter, moves = 4, 100, 400
	var wg sync.WaitGroup
	stop := make(chan struct{})

	mRow := func(i int) map[string]string {
		return map[string]string{"P": "p", "Q": fmt.Sprintf("q%d", i)}
	}
	if err := cs.Insert("M", mRow(0)); err != nil {
		t.Fatal(err)
	}
	writeErr := make(chan error, writers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		enc := NewBinBatchEncoder(cs.schema)
		for i := 1; i <= moves; i++ {
			enc.Reset()
			if err := enc.Delete("M", mRow(i-1)); err != nil {
				writeErr <- err
				return
			}
			if err := enc.Add("M", mRow(i)); err != nil {
				writeErr <- err
				return
			}
			if _, err := cs.ApplyBinBatch(context.Background(), enc.Bytes()); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("k_%d_%d", w, i)
				err := cs.InsertBatch([]BatchOp{
					{Rel: "A", Row: map[string]string{"K": k, "X": "x" + k}},
					{Rel: "B", Row: map[string]string{"K": k, "Y": "y" + k}},
				})
				if err != nil {
					writeErr <- err
					return
				}
			}
			writeErr <- nil
		}(w)
	}

	readErr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					readErr <- nil
					return
				default:
				}
				full, err := cs.Window("K", "X", "Y")
				if err != nil {
					readErr <- err
					return
				}
				keys, err := cs.Window("K")
				if err != nil {
					readErr <- err
					return
				}
				// [K] was taken after [K X Y], so it can only have grown.
				if len(keys.Rows) < len(full.Rows) {
					readErr <- fmt.Errorf("torn read: %d keys but %d full rows",
						len(keys.Rows), len(full.Rows))
					return
				}
				moved, err := cs.Window("P", "Q")
				if err != nil {
					readErr <- err
					return
				}
				if len(moved.Rows) != 1 {
					readErr <- fmt.Errorf("torn move: M has %d rows %v, want exactly 1",
						len(moved.Rows), moved.Rows)
					return
				}
				// Selected windows probe the snapshot's indexes while writers
				// invalidate it: a present key stays fully present, and the
				// moved row is found by its probe key.
				if len(full.Rows) > 0 {
					k := full.Rows[len(full.Rows)/2]["K"]
					one, err := cs.Query(WindowQuery{Attrs: []string{"K", "X", "Y"}, Where: map[string]string{"K": k}})
					if err != nil {
						readErr <- err
						return
					}
					if len(one.Rows) != 1 || one.Rows[0]["Y"] != "y"+k {
						readErr <- fmt.Errorf("selected key %s: %v", k, one.Rows)
						return
					}
				}
				probed, err := cs.Query(WindowQuery{Attrs: []string{"P", "Q"}, Where: map[string]string{"P": "p"}})
				if err != nil {
					readErr <- err
					return
				}
				if len(probed.Rows) != 1 {
					readErr <- fmt.Errorf("torn move under a probe: %v", probed.Rows)
					return
				}
			}
		}()
	}

	for w := 0; w < writers+1; w++ {
		if err := <-writeErr; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for r := 0; r < 2; r++ {
		if err := <-readErr; err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	// Final state: every key fully present.
	full, err := cs.Window("K", "X", "Y")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) != writers*perWriter {
		t.Fatalf("final window = %d rows, want %d", len(full.Rows), writers*perWriter)
	}

	// Each reader iteration evaluated two windows against at most two
	// snapshot cuts; the cache must have served the unchanged ones.
	qs := cs.QueryStats()
	if qs.SnapshotReuses == 0 {
		t.Logf("no snapshot reuse observed (possible under heavy write interleaving): %+v", qs)
	}
}

// TestWindowSnapshotReuse: with no writes in between, repeated queries
// share one cached snapshot and never take the state locks.
func TestWindowSnapshotReuse(t *testing.T) {
	cs := mustStore(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	seedUniversity(t, cs)
	for i := 0; i < 5; i++ {
		if _, err := cs.Window("C", "T"); err != nil {
			t.Fatal(err)
		}
	}
	qs := cs.QueryStats()
	if qs.SnapshotCopies != 1 || qs.SnapshotReuses != 4 {
		t.Fatalf("snapshot cache: %+v", qs)
	}

	// A write invalidates the cache; the next query cuts a fresh snapshot
	// and sees the new row.
	if err := cs.Insert("CT", map[string]string{"C": "cs103", "T": "noether"}); err != nil {
		t.Fatal(err)
	}
	res, err := cs.Window("C", "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("window after write: %v", res.Rows)
	}
	if qs := cs.QueryStats(); qs.SnapshotCopies != 2 {
		t.Fatalf("write should invalidate the snapshot cache: %+v", qs)
	}
}

// TestRelationBinaryReadsQuerySnapshot: fragment reads share the cached
// query snapshot — two reads with no write between cut at most one snapshot
// and the second reuses it — and a write between reads shows in the next
// fragment.
func TestRelationBinaryReadsQuerySnapshot(t *testing.T) {
	cs := mustStore(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	seedUniversity(t, cs)
	fragment := func() []map[string]string {
		t.Helper()
		data, err := cs.RelationBinary("CT")
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeWindowBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	before := cs.QueryStats()
	first := fragment()
	fragment()
	after := cs.QueryStats()
	if after.SnapshotCopies-before.SnapshotCopies > 1 || after.SnapshotReuses == before.SnapshotReuses {
		t.Fatalf("two fragment reads without a write: copies %d → %d, reuses %d → %d",
			before.SnapshotCopies, after.SnapshotCopies, before.SnapshotReuses, after.SnapshotReuses)
	}
	if err := cs.Insert("CT", map[string]string{"C": "cs103", "T": "noether"}); err != nil {
		t.Fatal(err)
	}
	rows := fragment()
	if len(rows) != len(first)+1 {
		t.Fatalf("fragment after write holds %d rows, want %d", len(rows), len(first)+1)
	}
	found := false
	for _, row := range rows {
		found = found || row["C"] == "cs103" && row["T"] == "noether"
	}
	if !found {
		t.Fatalf("fragment after write misses the new row: %v", rows)
	}
}

// TestDurableStoreWindow: DurableStore inherits the query API, and windows
// survive recovery.
func TestDurableStoreWindow(t *testing.T) {
	dir := t.TempDir()
	sch := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Insert("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Insert("CS", map[string]string{"C": "cs101", "S": "ada"}); err != nil {
		t.Fatal(err)
	}
	res, err := ds.Window("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["T"] != "jones" {
		t.Fatalf("durable window: %v", res.Rows)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	res, err = ds2.Window("S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["S"] != "ada" {
		t.Fatalf("recovered window: %v", res.Rows)
	}
}
