package engine

import (
	"context"
	"testing"

	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/relation"
	"indep/internal/schema"
)

// TestQuerySnapshotVersioning: the cached snapshot is shared while no
// mutation lands, and invalidated by inserts, deletes, and batches.
func TestQuerySnapshotVersioning(t *testing.T) {
	s := schema.MustParse("CT(C,T); CS(C,S)")
	fds := fd.MustParse(s.U, "C -> T")
	e, err := New(s, fds, chase.DefaultCaps)
	if err != nil {
		t.Fatal(err)
	}
	tup := func(names ...string) relation.Tuple {
		out := make(relation.Tuple, len(names))
		for i, n := range names {
			out[i] = e.Dict().Value(n)
		}
		return out
	}

	s1 := e.QuerySnapshot()
	if s2 := e.QuerySnapshot(); s2 != s1 {
		t.Fatal("unchanged engine must reuse the cached snapshot")
	}

	if err := e.Insert(0, tup("cs101", "jones")); err != nil {
		t.Fatal(err)
	}
	s3 := e.QuerySnapshot()
	if s3 == s1 {
		t.Fatal("insert must invalidate the cached snapshot")
	}
	if s3.Insts[0].Len() != 1 {
		t.Fatalf("snapshot rows: %d", s3.Insts[0].Len())
	}

	// A rejected insert leaves the state — and the cache — unchanged.
	if err := e.Insert(0, tup("cs101", "smith")); err == nil {
		t.Fatal("conflicting insert should be rejected")
	}
	if s4 := e.QuerySnapshot(); s4 != s3 {
		t.Fatal("rejected insert must not invalidate the cached snapshot")
	}

	if _, err := e.Delete(0, tup("cs101", "jones")); err != nil {
		t.Fatal(err)
	}
	if s5 := e.QuerySnapshot(); s5 == s3 || s5.Insts[0].Len() != 0 {
		t.Fatal("delete must invalidate the cached snapshot")
	}

	if err := e.InsertBatch([]Op{
		{Scheme: 0, Tuple: tup("cs102", "curie")},
		{Scheme: 1, Tuple: tup("cs102", "ada")},
	}); err != nil {
		t.Fatal(err)
	}
	s6 := e.QuerySnapshot()
	if s6.Insts[0].Len() != 1 || s6.Insts[1].Len() != 1 {
		t.Fatalf("batch snapshot: %v", s6)
	}
}

// TestEngineWindow drives the engine-level window entry point end to end.
func TestEngineWindow(t *testing.T) {
	s := schema.MustParse("CT(C,T); CS(C,S)")
	fds := fd.MustParse(s.U, "C -> T")
	e, err := New(s, fds, chase.DefaultCaps)
	if err != nil {
		t.Fatal(err)
	}
	c := e.Dict().Value("cs101")
	if err := e.Insert(0, relation.Tuple{c, e.Dict().Value("jones")}); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(1, relation.Tuple{c, e.Dict().Value("ada")}); err != nil {
		t.Fatal(err)
	}
	res, st, _, err := e.WindowMetaCtx(context.Background(), s.U.Set("S", "T"), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 1 {
		t.Fatalf("window [S T]: %v", res.Rows.Rows())
	}
	// Columns follow ascending universe order: T (from CT) before S.
	row := res.Rows.Rows()[0]
	if st.Dict.Name(row[0]) != "jones" || st.Dict.Name(row[1]) != "ada" {
		t.Fatalf("window row renders as (%s,%s)", st.Dict.Name(row[0]), st.Dict.Name(row[1]))
	}
	qs := e.QueryStats()
	if qs.Queries != 1 || qs.FastEvals != 1 {
		t.Fatalf("query stats: %+v", qs)
	}
}
