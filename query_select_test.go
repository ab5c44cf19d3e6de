package indep

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/independence"
	"indep/internal/query"
	"indep/internal/relation"
)

// referenceWindow finishes a full, unselected window the way the store did
// before selection moved into the evaluator: filter by Where, project,
// sort the rows column by column, each column's names compared bytewise,
// then cut at Limit.
func referenceWindow(s *Schema, st *relation.State, rows *relation.Instance, x attrset.Set, q WindowQuery) ([]map[string]string, int) {
	cols := x.Attrs()
	kept := relation.NewInstance(x)
	for _, tu := range rows.Rows() {
		ok := true
		for name, val := range q.Where {
			a := s.s.U.MustIndex(name)
			for j, c := range cols {
				if c == a && st.Dict.Name(tu[j]) != val {
					ok = false
				}
			}
		}
		if ok {
			kept.Add(tu)
		}
	}
	out := kept
	if len(q.Project) > 0 {
		out = kept.Project(s.s.U.Set(q.Project...))
	}
	names := s.s.U.Names(out.Attrs)
	var all []map[string]string
	for _, tu := range out.Rows() {
		row := make(map[string]string, len(names))
		for j, name := range names {
			row[name] = st.Dict.Name(tu[j])
		}
		all = append(all, row)
	}
	sort.Slice(all, func(i, j int) bool {
		for _, name := range names {
			if all[i][name] != all[j][name] {
				return all[i][name] < all[j][name]
			}
		}
		return false
	})
	if q.Limit > 0 && len(all) > q.Limit {
		all = all[:q.Limit]
	}
	return all, out.Len()
}

// rowKeys lists each row's names in the named columns' order: the key the
// rows sort by, column by column. A window is a set, so no two of its rows
// share a key, and tests comparing keys compare rows.
func rowKeys(rows []map[string]string, names []string) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		out[i] = make([]string, len(names))
		for j, n := range names {
			out[i][j] = row[n]
		}
	}
	return out
}

// subset draws a random subset of names, each kept with probability 1/k.
func subset(r *rand.Rand, names []string, k int) []string {
	var out []string
	for _, n := range names {
		if r.Intn(k) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// TestQueryMatchesReferenceRandom checks the public query path — Where
// evaluated inside the plan, Project, the bounded top-k and rendering —
// against the reference pipeline over two full windows: the fast
// evaluator's and the chase's. Value names are prefixes of one another, so
// the top-k order is pinned byte for byte. Each schema runs twice: once
// with names that include NUL bytes and once without; both order column by
// column.
func TestQueryMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, c := range []struct {
		d    [2]string
		vals []string
	}{
		{[2]string{"CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R"}, nulNames},
		{[2]string{"F(A,B,C); D1(A,E,G); D2(B,H)", "A -> E G; B -> H"}, nulNames},
		{[2]string{"CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R"}, plainNames},
		{[2]string{"F(A,B,C); D1(A,E,G); D2(B,H)", "A -> E G; B -> H"}, plainNames},
	} {
		d, vals := c.d, c.vals
		sch := MustParse(d[0], d[1])
		cs, err := sch.OpenConcurrentStore()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			rel := sch.Relations()[r.Intn(len(sch.Relations()))]
			row := map[string]string{}
			for _, a := range sch.s.U.Names(sch.s.Attrs(sch.s.IndexOf(rel))) {
				row[a] = vals[r.Intn(len(vals))]
			}
			if err := cs.Insert(rel, row); err != nil && !Rejected(err) {
				t.Fatal(err)
			}
		}
		db := cs.Snapshot()
		chaseEv := query.NewEvaluator(sch.s, sch.fds, &independence.Result{}, chase.DefaultCaps)
		all := sch.s.U.Names(sch.s.U.All())
		for k := 0; k < 300; k++ {
			q := WindowQuery{Attrs: subset(r, all, 3), Limit: r.Intn(6)}
			if len(q.Attrs) == 0 {
				continue
			}
			for _, a := range subset(r, q.Attrs, 3) {
				if q.Where == nil {
					q.Where = map[string]string{}
				}
				q.Where[a] = append(vals, "nope")[r.Intn(len(vals)+1)]
			}
			q.Project = subset(r, q.Attrs, 2)
			x := sch.s.U.Set(q.Attrs...)
			got, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			q.BinaryResult = true
			bin, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeWindowBinary(bin.Bin)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range []*query.Evaluator{db.qev, chaseEv} {
				full, err := ev.Window(db.st, x)
				if err != nil {
					t.Fatal(err)
				}
				want, total := referenceWindow(sch, db.st, full.Rows, x, q)
				wantKeys := rowKeys(want, got.Attrs)
				if got.Total != total || !reflect.DeepEqual(rowKeys(got.Rows, got.Attrs), wantKeys) {
					t.Fatalf("%s: query %+v\ngot  %q (total %d)\nwant %q (total %d, fast %v)",
						d[0], q, got.Rows, got.Total, want, total, full.Fast)
				}
				if dec.Total != total || !reflect.DeepEqual(dec.Rows, got.Rows) {
					t.Fatalf("%s: binary query %+v\ngot  %q\nwant %q", d[0], q, dec.Rows, got.Rows)
				}
			}
		}
	}
}

// Value pools for TestQueryMatchesReferenceRandom: names that are prefixes
// of one another, with and without NUL bytes.
var (
	nulNames   = []string{"v", "v\x00", "v\x00w", "v\x01", "vw", "w", "", "\x00"}
	plainNames = []string{"v", "v\x01", "v\x01w", "vw", "vw\x01", "w", "", "\x01"}
)

// TestWindowOrderNULNames pins the row order for names that embed NUL
// bytes, at every limit: column by column, each column's names compared
// bytewise, so a name orders right after every name it extends, whatever
// bytes follow it. R holds every pair of names, so its full answer is the
// sorted names paired with the sorted names.
func TestWindowOrderNULNames(t *testing.T) {
	sch := MustParse("R(P,Q)", "")
	db := sch.NewDatabase()
	names := []string{"", "a", "a\x00", "a\x00b", "a\x00\x00", "a\x01", "ab", "\x00"}
	for _, p := range names {
		for _, q := range names {
			if err := db.Insert("R", map[string]string{"P": p, "Q": q}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sorted := slices.Clone(names)
	sort.Strings(sorted)
	var all [][]string
	for _, p := range sorted {
		for _, q := range sorted {
			all = append(all, []string{p, q})
		}
	}
	for limit := 0; limit <= len(all)+1; limit++ {
		got, err := db.Query(WindowQuery{Attrs: []string{"P", "Q"}, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		want := all
		if limit > 0 && limit < len(all) {
			want = all[:limit]
		}
		if keys := rowKeys(got.Rows, got.Attrs); !reflect.DeepEqual(keys, want) {
			t.Fatalf("limit %d:\ngot  %q\nwant %q", limit, keys, want)
		}
	}
}

// starDatabase builds F(A,B); D(A,E) with A -> E: n fact rows whose A key
// a<i/3> repeats three times, and one dimension row per key.
func starDatabase(t *testing.T, n int) *Database {
	t.Helper()
	db := MustParse("F(A,B); D(A,E)", "A -> E").NewDatabase()
	for i := 0; i < n; i++ {
		a := fmt.Sprintf("a%d", i/3)
		if err := db.Insert("F", map[string]string{"A": a, "B": fmt.Sprintf("b%d", i)}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := db.Insert("D", map[string]string{"A": a, "E": fmt.Sprintf("e%d", i%7)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// scanned sums an explained query's rows scanned, per relation.
func scanned(t *testing.T, db *Database, q WindowQuery) map[string]int {
	t.Helper()
	q.Explain = true
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, rs := range res.Explain.Relations {
		out[rs.Relation] = rs.Rows
	}
	return out
}

// TestSelectedWindowScansIndependentOfSize: a key-selected window visits
// the rows carrying the key, not the relation, so the count explain
// reports is the same at 1k and at 10k fact rows.
func TestSelectedWindowScansIndependentOfSize(t *testing.T) {
	small, large := starDatabase(t, 1000), starDatabase(t, 10000)
	for _, c := range []struct {
		q    WindowQuery
		want map[string]int
	}{
		// Join window: F probed on A, each hit extended to E through D.
		{WindowQuery{Attrs: []string{"A", "B", "E"}, Where: map[string]string{"A": "a7"}},
			map[string]int{"F": 3}},
		// Dimension point window: D probed directly; F is pruned, since
		// its rows reach E only through D's A -> E.
		{WindowQuery{Attrs: []string{"A", "E"}, Where: map[string]string{"A": "a7"}},
			map[string]int{"D": 1}},
		// Selected on F's scheme, outside D's: F probed on B, its hit
		// extended to E through D; D cannot contribute.
		{WindowQuery{Attrs: []string{"B", "E"}, Where: map[string]string{"B": "b21"}},
			map[string]int{"F": 1}},
		// Selected outside F's scheme: F cannot probe, so it scans.
		{WindowQuery{Attrs: []string{"B", "E"}, Where: map[string]string{"E": "e0"}},
			nil},
	} {
		s, l := scanned(t, small, c.q), scanned(t, large, c.q)
		if c.want == nil {
			if l["F"] != 10000 {
				t.Fatalf("%v: F scanned %d rows at 10k, want a full scan", c.q, l["F"])
			}
			continue
		}
		if !reflect.DeepEqual(s, c.want) || !reflect.DeepEqual(l, c.want) {
			t.Fatalf("%v: scanned %v at 1k and %v at 10k, want %v", c.q, s, l, c.want)
		}
	}
}

// TestSelectedQueryAllocBudget pins the untraced selected point window on
// a cached plan and snapshot, as TestUntracedQueryAllocBudget does for the
// unselected one; selection costs the resolved conditions and the probe.
func TestSelectedQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race; CI pins them in a plain pass")
	}
	cs := traceTestStore(t)
	ctx := context.Background()
	for _, where := range []map[string]string{{"C": "cs101"}, {"T": "jones"}} {
		q := WindowQuery{Attrs: []string{"C", "T"}, Where: where}
		if _, err := cs.QueryCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(300, func() {
			if _, err := cs.QueryCtx(ctx, q); err != nil {
				t.Fatal(err)
			}
		}); n > 28 {
			t.Fatalf("selected QueryCtx %v allocates %v/op, budget 28", where, n)
		}
	}
}

// TestWindowFetchesStarSchema pins the gather set of the benchmark's two
// join window shapes on its star schema: a DIMk point window fetches DIMk
// alone, since FACT reaches DIMk's attributes only through a DIMk tuple
// holding the whole answer row, and a window over FACT and two DIMk
// dependents fetches FACT and DIMk.
func TestWindowFetchesStarSchema(t *testing.T) {
	sch := MustParse("FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)",
		"A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y")
	dims := [][]string{
		{"A", "E", "F", "G", "H", "I"},
		{"B", "J", "K", "L", "M", "N"},
		{"C", "O", "P", "Q", "R", "S"},
		{"D", "T", "U", "V", "W", "X", "Y"},
	}
	fetched := func(q WindowQuery) string {
		fetches, fast, _, err := sch.WindowFetches(q)
		if err != nil || !fast {
			t.Fatalf("%v: fast %v, err %v", q, fast, err)
		}
		var rels []string
		for _, f := range fetches {
			rels = append(rels, f.Relation)
		}
		return strings.Join(rels, " ")
	}
	for k, attrs := range dims {
		dim := fmt.Sprintf("DIM%d", k+1)
		where := map[string]string{attrs[0]: "k3"}
		if got := fetched(WindowQuery{Attrs: attrs, Where: where}); got != dim {
			t.Fatalf("%s point window fetches %s, want %s", dim, got, dim)
		}
		join := append([]string{"A", "B", "C", "D"}, attrs[1:3]...)
		if got := fetched(WindowQuery{Attrs: join, Where: where}); got != "FACT "+dim {
			t.Fatalf("window %v fetches %s, want FACT %s", join, got, dim)
		}
	}
}
