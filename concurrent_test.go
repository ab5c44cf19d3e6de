package indep

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestConcurrentStoreFastPath(t *testing.T) {
	s := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	cs, err := s.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if !cs.FastPath() {
		t.Fatal("Example 2 must take the fast path")
	}
	if !cs.Analysis().Independent {
		t.Fatal("analysis must report independence")
	}
	if err := cs.Insert("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil {
		t.Fatal(err)
	}
	err = cs.Insert("CT", map[string]string{"C": "cs101", "T": "smith"})
	if !Rejected(err) {
		t.Fatalf("want rejection, got %v", err)
	}
	if err := cs.Insert("CT", map[string]string{"C": "cs101"}); err == nil || Rejected(err) {
		t.Fatalf("missing attribute must be a malformed-input error, got %v", err)
	}
	if ok, err := cs.Delete("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if err := cs.Insert("CT", map[string]string{"C": "cs101", "T": "smith"}); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
	if cs.Rows() != 1 {
		t.Fatalf("Rows = %d, want 1", cs.Rows())
	}
}

func TestConcurrentStoreChasePath(t *testing.T) {
	s := MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D")
	cs, err := s.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if cs.FastPath() {
		t.Fatal("Example 1 must take the chase path")
	}
	if err := cs.Insert("CD", map[string]string{"C": "CS402", "D": "CS"}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Insert("CT", map[string]string{"C": "CS402", "T": "Jones"}); err != nil {
		t.Fatal(err)
	}
	err = cs.Insert("TD", map[string]string{"T": "Jones", "D": "EE"})
	if !Rejected(err) {
		t.Fatalf("the CS402 anomaly must be rejected, got %v", err)
	}
	snap := cs.Snapshot()
	if ok, err := snap.Satisfies(); err != nil || !ok {
		t.Fatalf("served state must stay satisfying: %v, %v", ok, err)
	}
}

func TestConcurrentStoreBatch(t *testing.T) {
	s := MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D")
	cs, err := s.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	bad := []BatchOp{
		{Rel: "CD", Row: map[string]string{"C": "CS402", "D": "CS"}},
		{Rel: "CT", Row: map[string]string{"C": "CS402", "T": "Jones"}},
		{Rel: "TD", Row: map[string]string{"T": "Jones", "D": "EE"}},
	}
	if err := cs.InsertBatch(bad); !Rejected(err) {
		t.Fatalf("jointly unsatisfiable batch must be rejected, got %v", err)
	}
	if cs.Rows() != 0 {
		t.Fatalf("rejected batch committed %d rows", cs.Rows())
	}
	good := []BatchOp{
		{Rel: "CD", Row: map[string]string{"C": "CS402", "D": "CS"}},
		{Rel: "CT", Row: map[string]string{"C": "CS402", "T": "Jones"}},
		{Rel: "TD", Row: map[string]string{"T": "Jones", "D": "CS"}},
	}
	if err := cs.InsertBatch(good); err != nil {
		t.Fatal(err)
	}
	if cs.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", cs.Rows())
	}
}

func TestConcurrentStoreSnapshotTuples(t *testing.T) {
	s := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	cs, err := s.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Insert("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil {
		t.Fatal(err)
	}
	rows, err := cs.Snapshot().Tuples("CT")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["C"] != "cs101" || rows[0]["T"] != "jones" {
		t.Fatalf("Tuples = %v", rows)
	}
	if _, err := cs.Snapshot().Tuples("NOPE"); err == nil {
		t.Fatal("want error for unknown relation")
	}
}

// concurrentStress drives a store from many goroutines; run under -race.
func concurrentStress(t *testing.T, cs *ConcurrentStore, rels []string, attrs map[string][]string) {
	const goroutines = 8
	const opsPer = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				rel := rels[(g+i)%len(rels)]
				row := make(map[string]string, len(attrs[rel]))
				for _, a := range attrs[rel] {
					// Per-seed functional values: never two bindings for one
					// LHS, so rejections come only from cross-goroutine
					// interleaving on the chase path.
					row[a] = fmt.Sprintf("%s-%d-%d", a, g, i)
				}
				switch i % 4 {
				case 0, 1:
					if err := cs.Insert(rel, row); err != nil && !Rejected(err) {
						t.Error(err)
						return
					}
				case 2:
					cs.Insert(rel, row)
					if _, err := cs.Delete(rel, row); err != nil {
						t.Error(err)
						return
					}
				case 3:
					snap := cs.Snapshot()
					if snap.Rows() < 0 {
						t.Error("impossible")
						return
					}
					cs.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}

func storeAttrs(t *testing.T, s *Schema) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, rel := range s.Relations() {
		as, err := s.RelationAttrs(rel)
		if err != nil {
			t.Fatal(err)
		}
		out[rel] = as
	}
	return out
}

func TestConcurrentStoreStressIndependent(t *testing.T) {
	s := MustParse(
		"COURSE(C,T,D); ENROLL(S,C,G); ROOMS(C,H,R); STUDENT(S,N,Y)",
		"C -> T; C -> D; S C -> G; C H -> R; S -> N; S -> Y")
	cs, err := s.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if !cs.FastPath() {
		t.Fatal("University must be independent")
	}
	concurrentStress(t, cs, s.Relations(), storeAttrs(t, s))
	snap := cs.Snapshot()
	if snap.Rows() != cs.Rows() {
		t.Fatalf("snapshot rows %d != store rows %d", snap.Rows(), cs.Rows())
	}
	if ok, err := snap.Satisfies(); err != nil || !ok {
		t.Fatalf("final state unsatisfying: %v, %v", ok, err)
	}
}

func TestConcurrentStoreStressChase(t *testing.T) {
	s := MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D")
	cs, err := s.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	concurrentStress(t, cs, s.Relations(), storeAttrs(t, s))
	snap := cs.Snapshot()
	if ok, err := snap.Satisfies(); err != nil || !ok {
		t.Fatalf("final state unsatisfying: %v, %v", ok, err)
	}
}

func TestConcurrentStoreDeleteDoesNotIntern(t *testing.T) {
	s := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	cs, err := s.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	// Deleting rows with never-seen values must not grow the dictionary.
	for i := 0; i < 100; i++ {
		row := map[string]string{"C": fmt.Sprintf("ghost%d", i), "T": "nobody"}
		if ok, err := cs.Delete("CT", row); err != nil || ok {
			t.Fatalf("Delete(ghost) = %v, %v", ok, err)
		}
	}
	if n := cs.eng.Dict().Len(); n != 0 {
		t.Fatalf("ghost deletes bound %d names", n)
	}
	if err := cs.Insert("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil {
		t.Fatal(err)
	}
	// Empty string is a legitimate value and must round-trip through the
	// snapshot dictionary.
	if err := cs.Insert("CS", map[string]string{"C": "cs101", "S": ""}); err != nil {
		t.Fatal(err)
	}
	rows, err := cs.Snapshot().Tuples("CS")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["S"] != "" {
		t.Fatalf("empty-string value did not round-trip: %v", rows)
	}
	// And a delete addressing interned values still works.
	if ok, err := cs.Delete("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil || !ok {
		t.Fatalf("Delete(real) = %v, %v", ok, err)
	}

	// The same holds for a binary payload of ghost deletes, atomic and
	// partial, on a durable store: nothing is bound, so the next commit
	// journals no ghost binding and a reopen restores none. The report keeps
	// every delete's place, and a delete naming a known value beside a
	// ghost one still deletes.
	dir := t.TempDir()
	ds, err := s.OpenDurableStore(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ds.Close() }()
	if err := ds.Insert("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil {
		t.Fatal(err)
	}
	enc := NewBinBatchEncoder(s)
	for i := 0; i < 100; i++ {
		if err := enc.Delete("CT", map[string]string{"C": fmt.Sprintf("ghost%d", i), "T": "nobody"}); err != nil {
			t.Fatal(err)
		}
	}
	names := ds.eng.Dict().Len()
	if n, err := ds.ApplyBinBatch(context.Background(), enc.Bytes()); err != nil || n != 100 {
		t.Fatalf("ghost payload: ApplyBinBatch = %d, %v", n, err)
	}
	if err := enc.Delete("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil {
		t.Fatal(err)
	}
	rep, err := ds.ApplyBinBatchPartial(context.Background(), enc.Bytes())
	if err != nil || rep.Ops != 101 || rep.Applied != 101 || rep.Changed != 1 || len(rep.Rejected) != 0 {
		t.Fatalf("ghost payload: partial report %+v, %v", rep, err)
	}
	if n := ds.eng.Dict().Len(); n != names {
		t.Fatalf("binary ghost deletes grew the dictionary %d -> %d", names, n)
	}
	if err := ds.Insert("CS", map[string]string{"C": "cs102", "S": "ann"}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = s.OpenDurableStore(dir, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := ds.eng.Dict().Len(); n != names+2 {
		t.Fatalf("reopened dictionary holds %d names, want %d", n, names+2)
	}
	if ds.Rows() != 1 {
		t.Fatalf("reopened store holds %d rows, want 1", ds.Rows())
	}
}

// TestSnapshotIsolatedWhileWritersIntern holds snapshots — the query path's
// cached cut and a public Snapshot — while writers intern fresh names and
// commit. Snapshots share the store's append-only dictionary instead of
// copying it, and this is what makes that sound: a snapshot's windows,
// tuples, rendering and binary encoding never change, and a Where on a name
// bound after the cut matches nothing. Run it under -race.
func TestSnapshotIsolatedWhileWritersIntern(t *testing.T) {
	for _, tc := range []struct{ schema, fds string }{
		{"CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R"},    // fast path
		{"CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D"}, // chase path
	} {
		cs, err := MustParse(tc.schema, tc.fds).OpenConcurrentStore()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if err := cs.Insert("CT", map[string]string{"C": fmt.Sprintf("c%d", i), "T": fmt.Sprintf("t%d", i%5)}); err != nil {
				t.Fatal(err)
			}
		}
		snaps := []*Database{
			{schema: cs.schema, st: cs.eng.QuerySnapshot(), qev: cs.eng.Evaluator()},
			cs.Snapshot(),
		}
		queries := []WindowQuery{
			{Attrs: []string{"C", "T"}},
			{Attrs: []string{"C", "T"}, Where: map[string]string{"T": "t1"}},
			{Attrs: []string{"C", "T"}, Limit: 7, BinaryResult: true},
		}
		observe := func(db *Database) string {
			var b strings.Builder
			b.WriteString(db.String())
			tuples, err := db.Tuples("CT")
			fmt.Fprintln(&b, tuples, err)
			for _, q := range queries {
				res, err := db.Query(q)
				if err != nil {
					return err.Error()
				}
				fmt.Fprintln(&b, res.Rows, res.Total, res.Bin)
			}
			return b.String()
		}
		want := make([]string, len(snaps))
		for i, db := range snaps {
			observe(db) // compile and cache the plans, which the binary flags report
			want[i] = observe(db)
		}

		const writers, each = 4, 150
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					row := map[string]string{"C": fmt.Sprintf("late-c%d-%d", w, i), "T": fmt.Sprintf("late-t%d-%d", w, i)}
					if err := cs.Insert("CT", row); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			for i, db := range snaps {
				if got := observe(db); got != want[i] {
					t.Fatalf("%s: snapshot %d changed while writers interned:\n--- at cut ---\n%s--- now ---\n%s", tc.schema, i, want[i], got)
				}
			}
		}
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		late := WindowQuery{Attrs: []string{"C", "T"}, Where: map[string]string{"C": "late-c0-0"}}
		if res, err := cs.Query(late); err != nil || len(res.Rows) != 1 {
			t.Fatalf("%s: the store's own window on a late name: %v, %v", tc.schema, res, err)
		}
		for i, db := range snaps {
			if res, err := db.Query(late); err != nil || len(res.Rows) != 0 || res.Total != 0 {
				t.Fatalf("%s: snapshot %d answers a name bound after its cut: %+v, %v", tc.schema, i, res, err)
			}
		}
	}
}
