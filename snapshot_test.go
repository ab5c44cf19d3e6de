package indep

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"indep/internal/relation"
	"indep/internal/wal"
)

// rebuilt copies db's state instance by instance, adding each row to a new
// instance: the same values (the dictionary is shared), every index built
// from scratch.
func rebuilt(db *Database) *Database {
	st := &relation.State{Schema: db.st.Schema, Insts: make([]*relation.Instance, len(db.st.Insts)), Dict: db.st.Dict}
	for i, in := range db.st.Insts {
		st.Insts[i] = relation.NewInstance(in.Attrs)
		for _, t := range in.Rows() {
			st.Insts[i].Add(t)
		}
	}
	return &Database{schema: db.schema, st: st, qev: db.qev}
}

// matched materializes the rows at slots of in, sorted.
func matched(in *relation.Instance, slots []int32) []relation.Tuple {
	out := make([]relation.Tuple, len(slots))
	for i, s := range slots {
		out[i] = in.AppendRow(nil, s)
	}
	slices.SortFunc(out, slices.Compare[relation.Tuple])
	return out
}

// TestSnapshotDatabaseMutation inserts into a Database cut from a store
// after deletes, so the cut carries a free list and builds its primary index
// on its first Insert. Every MatchingRows, LiveRows and window answer of the
// mutated database must equal those of a copy built tuple by tuple.
func TestSnapshotDatabaseMutation(t *testing.T) {
	sch := MustParse("CT(C,T); CS(C,S)", "C -> T")
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		c := fmt.Sprintf("c%d", i)
		if err := cs.Insert("CT", map[string]string{"C": c, "T": fmt.Sprintf("t%d", i%5)}); err != nil {
			t.Fatal(err)
		}
		if err := cs.Insert("CS", map[string]string{"C": c, "S": fmt.Sprintf("s%d", i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i += 7 {
		if _, err := cs.Delete("CT", map[string]string{"C": fmt.Sprintf("c%d", i), "T": fmt.Sprintf("t%d", i%5)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.Window("C", "T"); err != nil { // the store's query snapshot, which the cut below must not share
		t.Fatal(err)
	}
	db := cs.Snapshot()
	for i := 0; i < 12; i++ {
		if err := db.Insert("CT", map[string]string{"C": fmt.Sprintf("n%d", i), "T": "t1"}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("CS", map[string]string{"C": fmt.Sprintf("c%d", i), "S": "s9"}); err != nil {
			t.Fatal(err)
		}
	}
	ref := rebuilt(db)
	for i, in := range db.st.Insts {
		if got, want := matched(in, in.LiveRows()), matched(ref.st.Insts[i], ref.st.Insts[i].LiveRows()); !reflect.DeepEqual(got, want) {
			t.Fatalf("relation %d: LiveRows hold %v, rebuilt %v", i, got, want)
		}
		for _, name := range []string{"t1", "s9", "c3", "n4"} {
			v := db.st.Dict.Value(name)
			for c := 0; c < in.Width(); c++ {
				cols, want := []int{c}, []relation.Value{v}
				if got, exp := matched(in, in.MatchingRows(cols, want)), matched(ref.st.Insts[i], ref.st.Insts[i].MatchingRows(cols, want)); !reflect.DeepEqual(got, exp) {
					t.Fatalf("relation %d column %d = %s: %v, rebuilt %v", i, c, name, got, exp)
				}
			}
		}
	}
	for _, q := range []WindowQuery{
		{Attrs: []string{"C", "T"}},
		{Attrs: []string{"C", "T"}, Where: map[string]string{"T": "t1"}},
		{Attrs: []string{"T", "S"}, Where: map[string]string{"S": "s9"}},
		{Attrs: []string{"C", "T", "S"}},
	} {
		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("window %v where %v: %v, rebuilt %v", q.Attrs, q.Where, got.Rows, want.Rows)
		}
	}
	if n := cs.Snapshot().Rows(); n != 40+40-6 {
		t.Fatalf("the store holds %d rows after the cut was mutated, want 74", n)
	}
}

// TestInstallCheckpointOverQuerySnapshot installs a checkpoint over a store
// whose query snapshot inherits its indexes: CT was cut as the successor of
// an earlier cut and builds its primary index only when installCheckpoint
// probes it, and CS is the earlier cut's own instance. The install's
// membership probes must agree with the live state, leaving exactly the
// checkpoint's tuples.
func TestInstallCheckpointOverQuerySnapshot(t *testing.T) {
	sch := MustParse("CT(C,T); CS(C,S)", "C -> T")
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	ct := func(i int) map[string]string {
		return map[string]string{"C": fmt.Sprintf("c%d", i), "T": fmt.Sprintf("t%d", i%5)}
	}
	for i := 0; i < 60; i++ {
		if err := cs.Insert("CT", ct(i)); err != nil {
			t.Fatal(err)
		}
		if err := cs.Insert("CS", map[string]string{"C": fmt.Sprintf("c%d", i), "S": "s"}); err != nil {
			t.Fatal(err)
		}
	}
	ck := wal.NewCheckpoint(1, cs.eng.Snapshot())
	want := cs.String()
	where := WindowQuery{Attrs: []string{"C", "T"}, Where: map[string]string{"T": "t1"}}
	if _, err := cs.Query(where); err != nil {
		t.Fatal(err)
	}
	before := cs.eng.QuerySnapshot()
	for i := 0; i < 4; i++ {
		if _, err := cs.Delete("CT", ct(i)); err != nil {
			t.Fatal(err)
		}
		if err := cs.Insert("CT", ct(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.Query(where); err != nil {
		t.Fatal(err)
	}
	if after := cs.eng.QuerySnapshot(); after.Insts[0] == before.Insts[0] || after.Insts[1] != before.Insts[1] {
		t.Fatal("the query snapshot must cut CT anew and keep the cached CS")
	}
	if _, err := installCheckpoint(cs.eng, ck); err != nil {
		t.Fatal(err)
	}
	if got := cs.String(); got != want {
		t.Fatalf("after install:\n%s\nwant the checkpoint's state:\n%s", got, want)
	}
}
