package cluster_test

// The window read paths against the single-node oracle: a window consulting
// one relation is evaluated on that relation's owners and merged, any other
// is evaluated on the router over what it gathers of the relations it
// consults, and both must answer exactly what one node holding all the
// data answers.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"indep"
	"indep/internal/cluster"
	"indep/internal/obs"
)

// readLog records the reads a router makes of its shards.
type readLog struct {
	mu    sync.Mutex
	reads []shardRead
}

// shardRead is one read of one shard: the window q. rows is the number of
// rows the shard returned, rendered or binary, and cached its PlanCached
// flag.
type shardRead struct {
	shard  string
	q      indep.WindowQuery
	rows   int
	cached bool
}

func (l *readLog) add(r shardRead, res *indep.WindowResult) {
	if res != nil && res.Bin != nil {
		res, _ = indep.DecodeWindowBinary(res.Bin)
	}
	if res != nil {
		r.rows, r.cached = len(res.Rows), res.PlanCached
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reads = append(l.reads, r)
}

// take returns the reads logged so far and clears the log.
func (l *readLog) take() []shardRead {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.reads
	l.reads = nil
	return out
}

// loggingTransport logs a shard's reads.
type loggingTransport struct {
	cluster.Transport
	shard string
	log   *readLog
}

func (c *loggingTransport) Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	res, err := c.Transport.Window(ctx, q)
	c.log.add(shardRead{shard: c.shard, q: q}, res)
	return res, err
}

// newLoggingCluster is newTestCluster with every shard's reads logged.
func newLoggingCluster(t testing.TB, sch *indep.Schema, n int) (*testCluster, *readLog) {
	log := new(readLog)
	tc := newTestCluster(t, sch, n, cluster.Options{}, func(shard string, tr cluster.Transport) cluster.Transport {
		return &loggingTransport{Transport: tr, shard: shard, log: log}
	})
	return tc, log
}

// windowValues is an attribute's value pool: a few plain names plus names
// one of which is another followed by a NUL, so router and node must agree
// on where a name orders against its extensions.
func windowValues(attr string) []string {
	return []string{attr + "0", attr + "1", attr + "2", attr + "3", attr, attr + "\x00", attr + "\x001"}
}

// TestRouterWindowMatchesOracleRandom draws random windows — attributes,
// Where over seen and unseen values, Project (often dropping part of a
// partition key), Limit, Explain — over a 3-shard cluster and a single node
// holding the same data, and requires identical answers, rendered and
// binary alike; a window merged from its owners has its plan cached only
// if every owner's was. It also pins how
// each window read the shards: a single-relation window makes Window calls,
// reaching one shard when its Where binds the full partition key; a
// multi-relation window fetches each consulted relation by Window calls
// carrying its selection (Schema.WindowFetches), on one shard when it binds
// the relation's partition key.
//
// On U(A,B); V(A,C,B) with A -> C, U's tuples reach C through V's A -> C
// row, which leaves V's B free: a Where on B selects U's tuples but not
// V's. A window over V's scheme also holds U's tuples extended through V,
// so a gathered window's scratch state can hold more V rows than V, and its
// explain may count more of them than the oracle's.
func TestRouterWindowMatchesOracleRandom(t *testing.T) {
	for _, tc := range []struct {
		name, schema, fds string
		// narrower: the draw must reach a relation whose Where share is
		// narrower than Where ∩ its attributes; extra: a fetched window
		// can hold tuples outside the relation.
		narrower, extra bool
	}{
		{"running-example", "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R", false, false},
		{"composite-key", "R(A,B,C,D); S(B,E); T(F,G)", "A B -> C D; B -> E", false, false},
		{"free-column", "U(A,B); V(A,C,B); W(D,E)", "A -> C", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sch, err := indep.Parse(tc.schema, tc.fds)
			if err != nil {
				t.Fatal(err)
			}
			testWindowsAgainstOracle(t, sch, rand.New(rand.NewSource(5)), tc.narrower, tc.extra)
		})
	}
}

func testWindowsAgainstOracle(t *testing.T, sch *indep.Schema, rng *rand.Rand, wantNarrower, extra bool) {
	tc, log := newLoggingCluster(t, sch, 3)
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var universe []string
	seen := make(map[string]bool)
	relOf := make(map[string]string) // a relation's sorted attributes → its name
	for _, rel := range sch.Relations() {
		attrs, err := sch.RelationAttrs(rel)
		if err != nil {
			t.Fatal(err)
		}
		relOf[attrKey(attrs)] = rel
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

	var single, keyBound, multi, deduped, partial, narrower int
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
		// Every window is asked for twice: rendered, then binary, whose
		// bytes must decode to the same answer.
		log.take()
		got, err := tc.rt.Window(ctx, q)
		if err != nil {
			t.Fatalf("router %+v: %v", q, err)
		}
		reads := log.take()
		bq := q
		bq.BinaryResult = true
		bin, err := tc.rt.Window(ctx, bq)
		if err != nil {
			t.Fatalf("router %+v: %v", bq, err)
		}
		binReads := log.take()
		if bin.Rows != nil || len(bin.Bin) == 0 {
			t.Fatalf("binary window %+v: Rows %v, %d bytes", q, bin.Rows, len(bin.Bin))
		}
		decoded, err := indep.DecodeWindowBinary(bin.Bin)
		if err != nil {
			t.Fatalf("binary window %+v: %v", q, err)
		}
		for _, g := range []*indep.WindowResult{got, decoded} {
			if !reflect.DeepEqual(g.Attrs, want.Attrs) || !reflect.DeepEqual(g.Rows, want.Rows) ||
				g.Total != want.Total || g.FastPath != want.FastPath {
				t.Fatalf("window %+v (binary %v):\nrouter attrs %v rows %q total %d fast %v\noracle attrs %v rows %q total %d fast %v",
					q, g == decoded, g.Attrs, g.Rows, g.Total, g.FastPath, want.Attrs, want.Rows, want.Total, want.FastPath)
			}
		}

		fetches, _, _, err := sch.WindowFetches(q)
		if err != nil {
			t.Fatal(err)
		}
		consults, _, _, err := sch.WindowFetches(indep.WindowQuery{Attrs: q.Attrs})
		if err != nil {
			t.Fatal(err)
		}
		var fetched, rels []string
		for _, f := range fetches {
			fetched = append(fetched, f.Relation)
		}
		for _, f := range consults {
			rels = append(rels, f.Relation)
		}
		if !slices.Equal(fetched, rels) {
			t.Fatalf("window %+v: fetches %v, consults %v", q, fetches, rels)
		}
		for _, ex := range []*indep.WindowExplain{got.Explain, bin.Explain} {
			if q.Explain && !explainMatches(ex, want.Explain, len(fetches) > 1 && extra) {
				t.Fatalf("window %+v: explain %+v, oracle %+v", q, ex, want.Explain)
			}
		}
		switch {
		case len(fetches) == 1:
			single++
			// The merge rule: the plan was cached only if every owner's was.
			for _, run := range []struct {
				res   *indep.WindowResult
				reads []shardRead
			}{{got, reads}, {decoded, binReads}} {
				cached := true
				for _, r := range run.reads {
					cached = cached && r.cached
				}
				if run.res.PlanCached != cached {
					t.Fatalf("window %+v: planCached %v, owners' together %v", q, run.res.PlanCached, cached)
				}
			}
			rel := fetches[0].Relation
			shards := make(map[string]bool)
			for _, r := range reads {
				shards[r.shard] = true
			}
			if len(reads) == 0 {
				t.Fatalf("single-relation window %+v (%s) made no Window call", q, rel)
			}
			if bound(tc.rt.Placement().PartitionKey(rel), q.Where) {
				keyBound++
				if len(reads) != 1 {
					t.Fatalf("key-bound window %+v reached %d shards with %d calls, want 1",
						q, len(shards), len(reads))
				}
			}
			if n := ownerTotals(t, tc, rel, q); n > want.Total {
				deduped++ // the owners' answers overlapped; Total had to count distinct rows
			}
		case len(fetches) > 1:
			multi++
			selected, matched := 0, 0
			for _, f := range fetches {
				attrs, _ := sch.RelationAttrs(f.Relation)
				touched := 0
				for a, v := range q.Where {
					if slices.Contains(attrs, a) {
						touched++
					}
					if w, ok := f.Where[a]; ok && (w != v || !slices.Contains(attrs, a)) {
						t.Fatalf("window %+v: %s fetched with %v, not a share of Where", q, f.Relation, f.Where)
					}
				}
				if len(f.Where) < touched {
					narrower++
				}
				if len(f.Where) > 0 {
					selected++
				}
				matched += checkFetch(t, tc, q, f, reads, relOf)
			}
			if matched != len(reads) {
				t.Fatalf("multi-relation window %+v (%v): %d reads, %d of consulted relations", q, fetches, len(reads), matched)
			}
			if selected > 0 && selected < len(fetches) {
				partial++
			}
		}
	}
	t.Logf("single-relation %d (key-bound %d, overlapping %d), multi-relation %d (partly selected %d, share narrower than Where %d)",
		single, keyBound, deduped, multi, partial, narrower)
	if single == 0 || keyBound == 0 || deduped == 0 || multi == 0 || partial == 0 || wantNarrower && narrower == 0 {
		t.Fatalf("draw missed a read path: single %d key-bound %d overlapping %d multi %d partly selected %d narrower %d",
			single, keyBound, deduped, multi, partial, narrower)
	}
}

// checkFetch pins how a gathered window read one consulted relation: only
// Window calls over the relation's scheme carrying exactly its selection,
// empty when Where does not touch it, on the one owner of the hash range
// when the selection binds the partition key and on every owner otherwise.
// It returns the number of reads of the relation.
func checkFetch(t *testing.T, tc *testCluster, q indep.WindowQuery, f indep.WindowFetch, reads []shardRead, relOf map[string]string) int {
	t.Helper()
	var windows []string
	for _, r := range reads {
		if relOf[attrKey(r.q.Attrs)] != f.Relation {
			continue
		}
		if !reflect.DeepEqual(r.q.Where, f.Where) || r.q.Project != nil || r.q.Limit != 0 {
			t.Fatalf("window %+v: %s fetched as %+v, want its selection %v", q, f.Relation, r.q, f.Where)
		}
		windows = append(windows, r.shard)
	}
	slices.Sort(windows)
	want := tc.rt.Placement().Owners(f.Relation)
	if bound(tc.rt.Placement().PartitionKey(f.Relation), f.Where) {
		owner, err := tc.rt.Placement().Owner(f.Relation, f.Where)
		if err != nil {
			t.Fatal(err)
		}
		want = []string{owner}
	}
	if !slices.Equal(windows, want) {
		t.Fatalf("window %+v: %s (selection %v) read by Window on %v, want on %v",
			q, f.Relation, f.Where, windows, want)
	}
	return len(windows)
}

// explainMatches compares a router explain with the oracle's. With extra
// set, a relation may count more rows than the oracle's: a fetched window
// over its scheme can hold tuples of the total projection outside it.
func explainMatches(got, want *indep.WindowExplain, extra bool) bool {
	if got == nil || got.Mode != want.Mode || len(got.Relations) != len(want.Relations) {
		return false
	}
	for i, rs := range got.Relations {
		w := want.Relations[i]
		if rs.Relation != w.Relation || rs.Rows < w.Rows || rs.Rows > w.Rows && !extra {
			return false
		}
	}
	return true
}

// attrKey names an attribute set independently of its order.
func attrKey(attrs []string) string {
	return strings.Join(slices.Sorted(slices.Values(attrs)), ",")
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

// TestRouterJoinWindowFetchIndependentOfSize: on a star schema a join
// window whose Where binds the dimension key reads the same shard rows at
// 1k and at 10k fact rows — the fact rows with that key and the one
// dimension row — because each consulted relation is fetched as the window
// its share of Where selects, never whole.
func TestRouterJoinWindowFetchIndependentOfSize(t *testing.T) {
	sch, err := indep.Parse("FACT(A,B); DIM(A,E)", "A -> E")
	if err != nil {
		t.Fatal(err)
	}
	const keys, hot = 100, 5 // key a0 has hot fact rows at every size
	q := indep.WindowQuery{Attrs: []string{"A", "B", "E"}, Where: map[string]string{"A": "a0"}}
	var fetched []int
	for _, n := range []int{1_000, 10_000} {
		tc, log := newLoggingCluster(t, sch, 3)
		oracle, err := sch.OpenConcurrentStore()
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var ops []indep.BatchOp
		for k := 0; k < keys; k++ {
			ops = append(ops, indep.BatchOp{Rel: "DIM", Row: map[string]string{"A": fmt.Sprint("a", k), "E": fmt.Sprint("e", k)}})
		}
		for i := 0; i < n; i++ {
			a := "a0"
			if i >= hot {
				a = fmt.Sprint("a", 1+i%(keys-1))
			}
			ops = append(ops, indep.BatchOp{Rel: "FACT", Row: map[string]string{"A": a, "B": fmt.Sprint("b", i)}})
		}
		payload := encodePayload(t, sch, ops, nil)
		if _, err := oracle.ApplyBinBatchPartial(ctx, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.rt.Batch(ctx, payload); err != nil {
			t.Fatal(err)
		}

		log.take()
		got, err := tc.rt.Window(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.QueryCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || got.Total != hot || want.Total != hot {
			t.Fatalf("%d fact rows: router %v (total %d), oracle %v (total %d)", n, got.Rows, got.Total, want.Rows, want.Total)
		}
		rows := 0
		for _, r := range log.take() {
			rows += r.rows
		}
		fetched = append(fetched, rows)
	}
	if fetched[0] != fetched[1] || fetched[0] != hot+1 {
		t.Fatalf("rows fetched at 1k and 10k fact rows: %v, want %d at both", fetched, hot+1)
	}
}

// gathers reads the router's indep_cluster_window_gathers_total.
func gathers(t *testing.T, rt *cluster.Router) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	rt.RegisterMetrics(reg)
	fams, err := obs.ParseExposition(reg.Expose())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name == "indep_cluster_window_gathers_total" {
			return f.Samples[0].Value
		}
	}
	t.Fatal("no indep_cluster_window_gathers_total family")
	return 0
}

// TestRouterDimensionPointWindowOneCall: on a star schema a dimension point
// window consults the dimension alone (the fact relation reaches its
// attributes only through its rows, so it adds no answer row), so the
// router forwards it to the key's one owner: one shard call, no gather, and
// the single node's answer. A window over the fact relation and a
// dimension still gathers both.
func TestRouterDimensionPointWindowOneCall(t *testing.T) {
	sch, err := indep.Parse("FACT(A,B,C); DIM1(A,E,F); DIM2(B,G)", "A -> E F; B -> G")
	if err != nil {
		t.Fatal(err)
	}
	tc, log := newLoggingCluster(t, sch, 3)
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ops []indep.BatchOp
	for k := 0; k < 20; k++ {
		ops = append(ops,
			indep.BatchOp{Rel: "DIM1", Row: map[string]string{"A": fmt.Sprint("a", k), "E": fmt.Sprint("e", k%3), "F": fmt.Sprint("f", k%7)}},
			indep.BatchOp{Rel: "DIM2", Row: map[string]string{"B": fmt.Sprint("b", k), "G": fmt.Sprint("g", k%5)}})
	}
	for i := 0; i < 200; i++ {
		ops = append(ops, indep.BatchOp{Rel: "FACT", Row: map[string]string{
			"A": fmt.Sprint("a", i%20), "B": fmt.Sprint("b", i%19), "C": fmt.Sprint("c", i)}})
	}
	payload := encodePayload(t, sch, ops, nil)
	if _, err := oracle.ApplyBinBatchPartial(ctx, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.rt.Batch(ctx, payload); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q      indep.WindowQuery
		gather bool
	}{
		{indep.WindowQuery{Attrs: []string{"A", "E", "F"}, Where: map[string]string{"A": "a3"}}, false},
		{indep.WindowQuery{Attrs: []string{"A", "E"}, Where: map[string]string{"A": "a17"}}, false},
		{indep.WindowQuery{Attrs: []string{"B", "G"}, Where: map[string]string{"B": "b4"}}, false},
		{indep.WindowQuery{Attrs: []string{"A", "B", "E"}, Where: map[string]string{"A": "a3"}}, true},
	} {
		log.take()
		before := gathers(t, tc.rt)
		got, err := tc.rt.Window(ctx, c.q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.QueryCtx(ctx, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Total == 0 || got.Total != want.Total || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%v: router %v (total %d), oracle %v (total %d)", c.q, got.Rows, got.Total, want.Rows, want.Total)
		}
		calls, moved := log.take(), gathers(t, tc.rt)-before
		if c.gather {
			if moved != 1 || len(calls) < 2 {
				t.Fatalf("%v: %d shard calls %v and %v gathers, want a gather", c.q, len(calls), calls, moved)
			}
			continue
		}
		if len(calls) != 1 || moved != 0 {
			t.Fatalf("%v: %d shard calls %v and %v gathers, want one call and none", c.q, len(calls), calls, moved)
		}
	}
}

// corruptTransport replaces a shard's binary window answers with corrupt(the
// shard's bytes).
type corruptTransport struct {
	cluster.Transport
	corrupt func([]byte) []byte
}

func (c *corruptTransport) Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	res, err := c.Transport.Window(ctx, q)
	if err == nil && res.Bin != nil {
		res.Bin = c.corrupt(res.Bin)
	}
	return res, err
}

// answerBytes hand-builds a binary window answer binding names[i] to id
// i+1, its rows given as ids.
func answerBytes(attrs, names []string, rows [][]int64) []byte {
	buf := append([]byte("IWIN1"), 1)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(len(attrs)))
	for _, a := range attrs {
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for i, nm := range names {
		buf = binary.AppendVarint(buf, int64(i+1))
		buf = binary.AppendUvarint(buf, uint64(len(nm)))
		buf = append(buf, nm...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, row := range rows {
		for _, v := range row {
			buf = binary.AppendVarint(buf, v)
		}
	}
	return withCRC(buf)
}

func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// TestRouterRejectsCorruptShardAnswer: a window answer that fails the
// router's check — bad checksum, trailing bytes, an unbound value, rows out
// of order — is a ShardError, on a window the router would forward from one
// owner and on one it would merge from several, rendered or binary; no
// answer reaches the caller.
func TestRouterRejectsCorruptShardAnswer(t *testing.T) {
	sch, err := indep.Parse("CT(C,T)", "C -> T")
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func([]byte) []byte{
		"bad checksum": func(b []byte) []byte {
			b = slices.Clone(b)
			b[len(b)/2] ^= 0x40
			return b
		},
		"trailing bytes": func(b []byte) []byte { return withCRC(append(slices.Clone(b[:len(b)-4]), 0)) },
		"unbound value": func([]byte) []byte {
			return answerBytes([]string{"C", "T"}, []string{"c1"}, [][]int64{{1, 2}})
		},
		"rows out of order": func([]byte) []byte {
			return answerBytes([]string{"C", "T"}, []string{"c2", "c1", "t"}, [][]int64{{1, 3}, {2, 3}})
		},
	} {
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, sch, 3, cluster.Options{Retries: 1, Backoff: time.Millisecond},
				func(shard string, tr cluster.Transport) cluster.Transport {
					return &corruptTransport{Transport: tr, corrupt: corrupt}
				})
			var ops []indep.BatchOp
			for i := 0; i < 20; i++ {
				ops = append(ops, indep.BatchOp{Rel: "CT", Row: map[string]string{"C": fmt.Sprint("c", i), "T": fmt.Sprint("t", i%3)}})
			}
			if _, err := tc.rt.Batch(context.Background(), encodePayload(t, sch, ops, nil)); err != nil {
				t.Fatal(err)
			}
			for _, q := range []indep.WindowQuery{
				{Attrs: []string{"C", "T"}, Where: map[string]string{"C": "c1"}}, // one owner
				{Attrs: []string{"C", "T"}, Limit: 5},                            // disjoint owners
				{Attrs: []string{"C", "T"}, Project: []string{"T"}},              // overlapping owners
			} {
				for _, bin := range []bool{false, true} {
					q.BinaryResult = bin
					res, err := tc.rt.Window(context.Background(), q)
					var se *cluster.ShardError
					if !errors.As(err, &se) || res != nil {
						t.Fatalf("window %+v over corrupt answers: %v, %v; want a ShardError", q, res, err)
					}
				}
			}
		})
	}
}

// TestRouterWindowBytesMatchNode: a window answer's bytes are canonical, so
// a three-shard router answers each window with exactly the bytes a single
// node holding the same rows answers with — whether it forwards one
// owner's answer (a DIM1 point window), merges disjoint answers (FACT
// selected on A), merges overlapping unlimited answers cut to a limit ([A B]
// and [A B C]), or gathers and evaluates (FACT with two DIM1 dependents).
// One call per window first warms both plan caches, so the flags agree.
func TestRouterWindowBytesMatchNode(t *testing.T) {
	sch := starSchema(t)
	tc := newTestCluster(t, sch, 3, cluster.Options{}, nil)
	node, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range starPayloads(t, sch, 40, 400) {
		if _, err := tc.rt.Batch(ctx, p); err != nil {
			t.Fatal(err)
		}
		if _, err := node.ApplyBinBatchPartial(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	fact := []string{"A", "B", "C", "D"}
	for _, q := range []indep.WindowQuery{
		{Attrs: starDims[0], Where: map[string]string{"A": "a3"}},
		{Attrs: fact, Where: map[string]string{"A": "a0"}},
		{Attrs: []string{"A", "B"}},
		{Attrs: []string{"A", "B"}, Limit: 5},
		{Attrs: []string{"A", "B", "C"}, Limit: 7},
		{Attrs: []string{"A", "B", "C", "D", "E", "F"}, Where: map[string]string{"A": "a3"}},
	} {
		q.BinaryResult = true
		var got, want *indep.WindowResult
		for i := 0; i < 2; i++ {
			if got, err = tc.rt.Window(ctx, q); err != nil {
				t.Fatal(err)
			}
			if want, err = node.QueryCtx(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		if want.Total == 0 || !bytes.Equal(got.Bin, want.Bin) {
			t.Fatalf("window %v where %v limit %d: router answers %d bytes (total %d), node %d (total %d)",
				q.Attrs, q.Where, q.Limit, len(got.Bin), got.Total, len(want.Bin), want.Total)
		}
	}
}
