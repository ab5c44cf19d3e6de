package cluster_test

// The window read paths against the single-node oracle: a window consulting
// one relation is evaluated on that relation's owners and merged, any other
// is evaluated on the router over gathered fragments, and both must answer
// exactly what one node holding all the data answers.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"indep"
	"indep/internal/cluster"
)

// countingTransport counts the shard calls each read path makes.
type countingTransport struct {
	cluster.Transport
	windows, relations atomic.Int64
}

func (c *countingTransport) Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	c.windows.Add(1)
	return c.Transport.Window(ctx, q)
}

func (c *countingTransport) Relation(ctx context.Context, rel string) (*indep.WindowResult, error) {
	c.relations.Add(1)
	return c.Transport.Relation(ctx, rel)
}

// windowValues is an attribute's value pool: a few plain names plus names
// one of which is another followed by a NUL, so row order has to fall back
// to the NUL-joined key.
func windowValues(attr string) []string {
	return []string{attr + "0", attr + "1", attr + "2", attr + "3", attr, attr + "\x00", attr + "\x001"}
}

// TestRouterWindowMatchesOracleRandom draws random windows — attributes,
// Where over seen and unseen values, Project (often dropping part of a
// partition key), Limit, Explain — over a 3-shard cluster and a single node
// holding the same data, and requires identical answers. It also pins which
// path each window took: a single-relation window makes Window calls and no
// Relation calls, one whose Where binds the full partition key reaches one
// shard, and a multi-relation window gathers.
func TestRouterWindowMatchesOracleRandom(t *testing.T) {
	for _, tc := range []struct{ name, schema, fds string }{
		{"running-example", "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R"},
		{"composite-key", "R(A,B,C,D); S(B,E); T(F,G)", "A B -> C D; B -> E"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sch, err := indep.Parse(tc.schema, tc.fds)
			if err != nil {
				t.Fatal(err)
			}
			testWindowsAgainstOracle(t, sch, rand.New(rand.NewSource(5)))
		})
	}
}

func testWindowsAgainstOracle(t *testing.T, sch *indep.Schema, rng *rand.Rand) {
	counters := make(map[string]*countingTransport)
	tc := newTestCluster(t, sch, 3, cluster.Options{}, func(shard string, tr cluster.Transport) cluster.Transport {
		ct := &countingTransport{Transport: tr}
		counters[shard] = ct
		return ct
	})
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var universe []string
	seen := make(map[string]bool)
	for _, rel := range sch.Relations() {
		attrs, err := sch.RelationAttrs(rel)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range attrs {
			if !seen[a] {
				seen[a] = true
				universe = append(universe, a)
			}
		}
	}

	// Load: random rows from the value pools, through the router and into
	// the oracle as the same partial-mode payloads (FD violations are
	// rejected identically on both sides).
	for round := 0; round < 4; round++ {
		enc := indep.NewBinBatchEncoder(sch)
		for i := 0; i < 150; i++ {
			rel := sch.Relations()[rng.Intn(len(sch.Relations()))]
			attrs, _ := sch.RelationAttrs(rel)
			row := make(map[string]string, len(attrs))
			for _, a := range attrs {
				vals := windowValues(a)
				row[a] = vals[rng.Intn(len(vals))]
			}
			if err := enc.Add(rel, row); err != nil {
				t.Fatal(err)
			}
		}
		want, err := oracle.ApplyBinBatchPartial(ctx, enc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.rt.Batch(ctx, enc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if msg := reportsEqual(got, want); msg != "" {
			t.Fatalf("load round %d: %s", round, msg)
		}
	}

	resetCounts := func() {
		for _, c := range counters {
			c.windows.Store(0)
			c.relations.Store(0)
		}
	}
	counts := func() (windows, relations, shardsAsked int64) {
		for _, c := range counters {
			w := c.windows.Load()
			windows += w
			relations += c.relations.Load()
			if w > 0 {
				shardsAsked++
			}
		}
		return
	}
	subset := func(from []string) []string {
		var out []string
		for _, a := range from {
			if rng.Intn(2) == 0 {
				out = append(out, a)
			}
		}
		if len(out) == 0 {
			out = append(out, from[rng.Intn(len(from))])
		}
		return out
	}

	var single, keyBound, multi, deduped int
	for i := 0; i < 400; i++ {
		// Attributes: mostly within one relation, so most windows consult
		// one relation; sometimes anywhere in the universe.
		var q indep.WindowQuery
		var key []string
		if rng.Intn(4) == 0 {
			q.Attrs = subset(universe)
		} else {
			rel := sch.Relations()[rng.Intn(len(sch.Relations()))]
			attrs, _ := sch.RelationAttrs(rel)
			q.Attrs = subset(attrs)
			key = tc.rt.Placement().PartitionKey(rel)
			if rng.Intn(3) == 0 { // make sure the key can be bound
				for _, a := range key {
					if !slices.Contains(q.Attrs, a) {
						q.Attrs = append(q.Attrs, a)
					}
				}
			}
		}
		pick := func(a string) string {
			if rng.Intn(4) == 0 {
				return a + "-unseen\x00" + fmt.Sprint(rng.Intn(3))
			}
			vals := windowValues(a)
			return vals[rng.Intn(len(vals))]
		}
		bindKey := rng.Intn(4) == 0
		for _, a := range q.Attrs {
			if rng.Intn(4) == 0 || bindKey && slices.Contains(key, a) {
				if q.Where == nil {
					q.Where = make(map[string]string)
				}
				q.Where[a] = pick(a)
			}
		}
		if rng.Intn(2) == 0 {
			q.Project = subset(q.Attrs)
		}
		q.Limit = []int{0, 0, 1, 2, 3, 7}[rng.Intn(6)]
		q.Explain = rng.Intn(3) == 0

		want, err := oracle.QueryCtx(ctx, q)
		if err != nil {
			t.Fatalf("oracle %+v: %v", q, err)
		}
		resetCounts()
		got, err := tc.rt.Window(ctx, q)
		if err != nil {
			t.Fatalf("router %+v: %v", q, err)
		}
		if !reflect.DeepEqual(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Rows, want.Rows) ||
			got.Total != want.Total || got.FastPath != want.FastPath {
			t.Fatalf("window %+v:\nrouter attrs %v rows %q total %d fast %v\noracle attrs %v rows %q total %d fast %v",
				q, got.Attrs, got.Rows, got.Total, got.FastPath, want.Attrs, want.Rows, want.Total, want.FastPath)
		}
		if q.Explain {
			if got.Explain == nil || got.Explain.Mode != want.Explain.Mode ||
				!reflect.DeepEqual(got.Explain.Relations, want.Explain.Relations) {
				t.Fatalf("window %+v: explain %+v, oracle %+v", q, got.Explain, want.Explain)
			}
		}

		rels, _, err := sch.WindowConsults(q.Attrs...)
		if err != nil {
			t.Fatal(err)
		}
		windows, relations, shardsAsked := counts()
		switch {
		case len(rels) == 1:
			single++
			if windows == 0 || relations != 0 {
				t.Fatalf("single-relation window %+v (%s): %d Window calls, %d Relation calls",
					q, rels[0], windows, relations)
			}
			if bound(tc.rt.Placement().PartitionKey(rels[0]), q.Where) {
				keyBound++
				if windows != 1 || shardsAsked != 1 {
					t.Fatalf("key-bound window %+v reached %d shards with %d calls, want 1",
						q, shardsAsked, windows)
				}
			}
			if n := ownerTotals(t, tc, rels[0], q); n > want.Total {
				deduped++ // the owners' answers overlapped; Total had to count distinct rows
			}
		case len(rels) > 1:
			multi++
			if relations == 0 || windows != 0 {
				t.Fatalf("multi-relation window %+v (%v): %d Window calls, %d Relation calls",
					q, rels, windows, relations)
			}
		}
	}
	t.Logf("single-relation %d (key-bound %d, overlapping %d), multi-relation %d",
		single, keyBound, deduped, multi)
	if single == 0 || keyBound == 0 || deduped == 0 || multi == 0 {
		t.Fatalf("draw missed a read path: single %d key-bound %d overlapping %d multi %d",
			single, keyBound, deduped, multi)
	}
}

// ownerTotals sums the Totals every shard holding part of rel reports for q
// on its own fragment.
func ownerTotals(t *testing.T, tc *testCluster, rel string, q indep.WindowQuery) int {
	t.Helper()
	q.Limit, q.Explain = 0, false
	n := 0
	for _, shard := range tc.rt.Placement().Owners(rel) {
		res, err := tc.stores[shard].QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		n += res.Total
	}
	return n
}

// bound reports whether where binds every key attribute.
func bound(key []string, where map[string]string) bool {
	for _, a := range key {
		if _, ok := where[a]; !ok {
			return false
		}
	}
	return true
}
