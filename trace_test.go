package indep

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// traceTestStore builds a concurrent store over the independent course
// schema with one CT row loaded.
func traceTestStore(t testing.TB) *ConcurrentStore {
	t.Helper()
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Insert("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestUntracedInsertAllocBudget pins the untraced hot path: tracing must be
// pay-only-when-sampled, so InsertCtx on a spanless context keeps the same
// allocs/op it had before spans existed (2: the row→tuple conversion).
func TestUntracedInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race; CI pins them in a plain pass")
	}
	cs := traceTestStore(t)
	ctx := context.Background()
	row := map[string]string{"C": "cs101", "T": "jones"}
	if n := testing.AllocsPerRun(500, func() {
		if err := cs.InsertCtx(ctx, "CT", row); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("untraced InsertCtx allocates %v/op, budget 2", n)
	}
}

// TestTracedInsertAllocBudget bounds the sampled path at steady state: the
// span arena is pooled and attr arrays are recycled, so a traced insert may
// add only the two span-context allocations over the untraced budget.
func TestTracedInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race; CI pins them in a plain pass")
	}
	cs := traceTestStore(t)
	rec := NewTraceRecorder(TraceRecorderOptions{Capacity: 8, Slow: -1, SampleEvery: 1 << 30})
	ctx := context.Background()
	row := map[string]string{"C": "cs101", "T": "jones"}
	if n := testing.AllocsPerRun(500, func() {
		tr, root := rec.Start("0123456789abcdef", "POST /insert")
		if err := cs.InsertCtx(ContextWithSpan(ctx, root), "CT", row); err != nil {
			t.Fatal(err)
		}
		rec.Finish(tr, 200)
	}); n > 4 {
		t.Fatalf("traced InsertCtx allocates %v/op, budget 4 (untraced 2 + 2 span contexts)", n)
	}
}

// TestUntracedQueryAllocBudget pins the untraced read path: a cached-plan,
// reused-snapshot window stays at a fixed allocs/op. The budget reflects the
// columnar result instance — a tiny result pays a few slice headers for its
// per-column arenas (a wash at this size; the arenas are what make wide
// scans stream) — so the pin is against future creep, not an ideal floor.
func TestUntracedQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race; CI pins them in a plain pass")
	}
	cs := traceTestStore(t)
	ctx := context.Background()
	q := WindowQuery{Attrs: []string{"C", "T"}}
	if _, err := cs.QueryCtx(ctx, q); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(300, func() {
		if _, err := cs.QueryCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	}); n > 27 {
		t.Fatalf("untraced QueryCtx allocates %v/op, budget 27", n)
	}
}

// TestPublicTraceAPI drives tracing end to end through the exported aliases:
// recorder → root span → store spans → retained view.
func TestPublicTraceAPI(t *testing.T) {
	cs := traceTestStore(t)
	rec := NewTraceRecorder(TraceRecorderOptions{Capacity: 8, SampleEvery: 1})
	id := NewTraceID()
	if !ValidTraceID(id) {
		t.Fatalf("NewTraceID minted invalid ID %q", id)
	}
	tr, root := rec.Start(id, "POST /insert")
	ctx := ContextWithSpan(WithTrace(context.Background(), id), root)
	if SpanFromContext(ctx) != root {
		t.Fatal("SpanFromContext lost the root")
	}
	if err := cs.InsertCtx(ctx, "CS", map[string]string{"C": "cs101", "S": "smith"}); err != nil {
		t.Fatal(err)
	}
	rec.Finish(tr, 200)

	v, ok := rec.Get(id)
	if !ok {
		t.Fatal("trace not retained")
	}
	names := map[string]bool{}
	for _, sp := range v.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"POST /insert", "store.insert", "engine.insert", "guard.validate"} {
		if !names[want] {
			t.Fatalf("span %q missing: %+v", want, v.Spans)
		}
	}
}

// TestQueryExplain checks the executed-plan report on the single-writer
// Database API: fast mode on an independent schema, scans consistent with
// the instance, pruned disjoint from scanned.
func TestQueryExplain(t *testing.T) {
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		t.Fatal(err)
	}
	db := sch.NewDatabase()
	if err := db.Insert("CT", map[string]string{"C": "cs101", "T": "jones"}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(WindowQuery{Attrs: []string{"C", "T"}, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain
	if ex == nil {
		t.Fatal("Explain requested but missing")
	}
	if (ex.Mode == "fast") != res.FastPath {
		t.Fatalf("mode %q vs FastPath %v", ex.Mode, res.FastPath)
	}
	if ex.PlanCached != res.PlanCached {
		t.Fatalf("explain PlanCached %v vs result %v", ex.PlanCached, res.PlanCached)
	}
	scanned := map[string]bool{}
	for _, rs := range ex.Relations {
		scanned[rs.Relation] = true
	}
	for _, p := range ex.Pruned {
		if scanned[p] {
			t.Fatalf("relation %s both scanned and pruned", p)
		}
	}

	res, err = db.Query(WindowQuery{Attrs: []string{"C", "T"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain != nil {
		t.Fatal("Explain attached without being requested")
	}

	// A selection is probed at the source: Rows counts the rows each
	// contributor visited, not the relation's size.
	for i := 2; i <= 9; i++ {
		c := fmt.Sprintf("cs10%d", i)
		if err := db.Insert("CT", map[string]string{"C": c, "T": "curie"}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("CS", map[string]string{"C": c, "S": "ada"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("CS", map[string]string{"C": "cs101", "S": "bob"}); err != nil {
		t.Fatal(err)
	}
	// CT alone answers [C T]: CS and CHR reach T only through CT's C -> T,
	// so every row they could give CT gives too, and both are pruned.
	for _, c := range []struct {
		attrs  []string
		where  map[string]string
		want   string
		pruned string
	}{
		{[]string{"C", "T"}, nil, "CT:9", "CS CHR"},
		{[]string{"C", "T"}, map[string]string{"C": "cs101"}, "CT:1", "CS CHR"},
		{[]string{"C", "T"}, map[string]string{"C": "cs999"}, "CT:0", "CS CHR"},
		{[]string{"C", "T"}, map[string]string{"T": "jones"}, "CT:1", "CS CHR"},
		// T is outside CS, the one contributor to [S T]: it visits every
		// row and extends it.
		{[]string{"S", "T"}, map[string]string{"T": "jones"}, "CS:9", "CT CHR"},
		{[]string{"S", "T"}, map[string]string{"S": "ada"}, "CS:8", "CT CHR"},
	} {
		res, err := db.Query(WindowQuery{Attrs: c.attrs, Where: c.where, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, rs := range res.Explain.Relations {
			got = append(got, fmt.Sprintf("%s:%d", rs.Relation, rs.Rows))
		}
		if strings.Join(got, " ") != c.want || strings.Join(res.Explain.Pruned, " ") != c.pruned {
			t.Fatalf("%v where %v: scanned %v, pruned %v, want %s and pruned %s",
				c.attrs, c.where, got, res.Explain.Pruned, c.want, c.pruned)
		}
	}
}
