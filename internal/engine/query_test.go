package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/query"
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
	if s3.Insts[1] != s1.Insts[1] {
		t.Fatal("a write to CT alone must keep the cached CS instance")
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

// TestQuerySnapshotChurn runs a payload writer and a churn writer beside
// window readers, on the fast path and on a chase-path schema (run under
// -race). Payload k puts one tuple into every relation, each value named
// "p<k>-<attribute>", and deletes payload k-2's, all in one Apply; the
// churn writer inserts and deletes tuples of relation 0 alone, so most cuts
// reuse the other relations' cached instances and cut relation 0 as a
// successor. Every snapshot a reader gets must hold the same payloads in
// every relation, and every window answer must equal the same window
// evaluated over a copy of that snapshot rebuilt tuple by tuple, whose
// indexes inherit nothing.
func TestQuerySnapshotChurn(t *testing.T) {
	for _, tc := range []struct{ name, schema, fds string }{
		{"fast", "FACT(F,D,V); DIM(D,N)", "F -> D V; D -> N"},
		{"chase", "CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := schema.MustParse(tc.schema)
			e, err := New(s, fd.MustParse(s.U, tc.fds), chase.DefaultCaps)
			if err != nil {
				t.Fatal(err)
			}
			if e.Fast() != (tc.name == "fast") {
				t.Fatalf("%s takes the fast path: %v", tc.schema, e.Fast())
			}
			// row is the tuple of relation l whose every value is prefix-<attr>.
			row := func(l int, prefix string) relation.Tuple {
				attrs := s.Attrs(l).Attrs()
				t := make(relation.Tuple, len(attrs))
				for i, a := range attrs {
					t[i] = e.Dict().Value(prefix + "-" + s.U.Name(a))
				}
				return t
			}
			payload := func(k int, del bool) []Op {
				ops := make([]Op, len(s.Rels))
				for l := range ops {
					ops[l] = Op{Scheme: l, Tuple: row(l, fmt.Sprintf("p%d", k)), Delete: del}
				}
				return ops
			}
			for i := 0; i < 60; i++ {
				if _, err := e.Apply(context.Background(), payload(-1-i, false)); err != nil {
					t.Fatal(err)
				}
			}
			var writers, readers sync.WaitGroup
			done := make(chan struct{}) // closed once the readers are through
			writers.Add(2)
			go func() {
				defer writers.Done()
				for k := 0; ; k++ {
					select {
					case <-done:
						return
					default:
					}
					ops := payload(k, false)
					if k >= 2 {
						ops = append(ops, payload(k-2, true)...)
					}
					if _, err := e.Apply(context.Background(), ops); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer writers.Done()
				for j := 0; ; j++ {
					select {
					case <-done:
						return
					default:
					}
					if err := e.Insert(0, row(0, fmt.Sprintf("c%d", j))); err != nil {
						t.Error(err)
						return
					}
					if j >= 3 {
						if _, err := e.Delete(0, row(0, fmt.Sprintf("c%d", j-3))); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			check := func(r int) {
				for i := 0; i < 150; i++ {
					st := e.QuerySnapshot()
					// Each payload is whole: every relation holds the same ones.
					var tags []string
					for l, in := range st.Insts {
						var got []string
						for _, tu := range in.Rows() {
							if name := st.Dict.Name(tu[0]); name[0] == 'p' {
								got = append(got, name[:strings.LastIndexByte(name, '-')])
							}
						}
						slices.Sort(got)
						if l == 0 {
							tags = got
						} else if !slices.Equal(got, tags) {
							t.Errorf("reader %d: %s holds payloads %v, %s holds %v", r, s.Name(l), got, s.Name(0), tags)
							return
						}
					}
					fresh := &relation.State{Schema: s, Insts: make([]*relation.Instance, len(st.Insts)), Dict: st.Dict}
					for l, in := range st.Insts {
						fresh.Insts[l] = relation.NewInstance(in.Attrs)
						for _, tu := range in.Rows() {
							fresh.Insts[l].Add(tu)
						}
					}
					l := i % len(s.Rels)
					attrs := s.Attrs(l)
					first := attrs.Attrs()[0]
					for _, w := range []struct {
						x     attrset.Set
						where map[int]string
					}{
						{attrs, nil},
						{attrs, map[int]string{first: tags[len(tags)-1] + "-" + s.U.Name(first)}},
						{s.U.All(), nil},
					} {
						sel := query.Resolve(st.Dict, w.where)
						got, err := e.ev.Query(st, w.x, sel)
						if err != nil {
							t.Error(err)
							return
						}
						want, err := e.ev.Query(fresh, w.x, sel)
						if err != nil {
							t.Error(err)
							return
						}
						if a, b := sortedRows(got.Rows), sortedRows(want.Rows); !slices.EqualFunc(a, b, slices.Equal[relation.Tuple]) {
							t.Errorf("reader %d: window %s where %v: %v, rebuilt copy %v", r, s.U.Format(w.x, " "), w.where, a, b)
							return
						}
					}
				}
			}
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					check(r)
				}(r)
			}
			readers.Wait()
			close(done)
			writers.Wait()
			if got, want := e.QuerySnapshot().String(), e.Snapshot().String(); got != want {
				t.Fatalf("final query snapshot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// sortedRows returns an instance's rows in value order.
func sortedRows(in *relation.Instance) []relation.Tuple {
	rows := in.Rows()
	slices.SortFunc(rows, slices.Compare[relation.Tuple])
	return rows
}
