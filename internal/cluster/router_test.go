package cluster_test

// Router tests run a whole cluster in one process over LocalTransports (so
// -race watches every cross-shard interaction) and hold it against a
// single-node oracle: the independence theorem says sharded admission and
// gathered windows must be observably identical to one node holding all
// the data. The fault-injected variants wrap each transport in
// replt.ShardInjector and demand the same equivalence through disconnects,
// duplicated forwards, and a shard killed mid-batch.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"indep"
	"indep/internal/cluster"
	"indep/internal/obs"
	"indep/internal/relation"
	"indep/internal/replt"
	"indep/internal/wal"
)

// testCluster is an in-process cluster: one router over n shard stores.
type testCluster struct {
	sch    *indep.Schema
	rt     *cluster.Router
	stores map[string]*indep.ConcurrentStore
}

func runningExample(t testing.TB) *indep.Schema {
	t.Helper()
	sch, err := indep.Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// newTestCluster builds an n-shard local cluster. wrap, when non-nil, maps
// each shard's transport through a fault layer.
func newTestCluster(t testing.TB, sch *indep.Schema, n int, opts cluster.Options,
	wrap func(shard string, tr cluster.Transport) cluster.Transport) *testCluster {
	t.Helper()
	var members []cluster.Member
	stores := make(map[string]*indep.ConcurrentStore, n)
	opts.Transports = make(map[string]cluster.Transport, n)
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("shard%d", i)
		members = append(members, cluster.Member{Name: name, URL: "local://" + name})
		store, err := sch.OpenConcurrentStore()
		if err != nil {
			t.Fatal(err)
		}
		stores[name] = store
		var tr cluster.Transport = &cluster.LocalTransport{Shard: name, Store: store}
		if wrap != nil {
			tr = wrap(name, tr)
		}
		opts.Transports[name] = tr
	}
	rt, err := cluster.NewRouter(sch, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{sch: sch, rt: rt, stores: stores}
}

// assembled unions every shard's fragments back into one database, through
// the same binary fragment encoding the router gathers over.
func (tc *testCluster) assembled(t testing.TB) *indep.Database {
	t.Helper()
	db := tc.sch.NewDatabase()
	for shard, store := range tc.stores {
		for _, rel := range tc.sch.Relations() {
			data, err := store.RelationBinary(rel)
			if err != nil {
				t.Fatalf("shard %s relation %s: %v", shard, rel, err)
			}
			frag, err := indep.DecodeWindowBinary(data)
			if err != nil {
				t.Fatalf("shard %s relation %s: %v", shard, rel, err)
			}
			for _, row := range frag.Rows {
				if err := db.Insert(rel, row); err != nil {
					t.Fatalf("assembling %s from %s: %v", rel, shard, err)
				}
			}
		}
	}
	return db
}

// clusterOps builds a deterministic mixed workload: valid inserts, FD
// violations (same C, different T), and deletes of earlier rows.
func clusterOps(rng *rand.Rand, n int) []indep.BatchOp {
	ops := make([]indep.BatchOp, 0, n)
	for i := 0; i < n; i++ {
		c := fmt.Sprintf("c%d", rng.Intn(n/2+1))
		switch rng.Intn(10) {
		case 0, 1, 2:
			ops = append(ops, indep.BatchOp{Rel: "CS", Row: map[string]string{"C": c, "S": fmt.Sprintf("s%d", rng.Intn(5))}})
		case 3, 4:
			ops = append(ops, indep.BatchOp{Rel: "CHR", Row: map[string]string{"C": c, "H": fmt.Sprintf("h%d", rng.Intn(4)), "R": "r0"}})
		case 5:
			// Violation bait: T depends on C, but T is drawn independently,
			// so repeats of the same C often disagree.
			ops = append(ops, indep.BatchOp{Rel: "CT", Row: map[string]string{"C": c, "T": fmt.Sprintf("t%d", rng.Intn(3))}})
		default:
			ops = append(ops, indep.BatchOp{Rel: "CT", Row: map[string]string{"C": c, "T": "t-of-" + c}})
		}
	}
	return ops
}

// encodePayload packs inserts and, for a suffix of the ops, deletes —
// matching the wire contract: all inserts apply before all deletes.
func encodePayload(t testing.TB, sch *indep.Schema, ops []indep.BatchOp, dels []indep.BatchOp) []byte {
	t.Helper()
	enc := indep.NewBinBatchEncoder(sch)
	for _, op := range ops {
		if err := enc.Add(op.Rel, op.Row); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range dels {
		if err := enc.Delete(op.Rel, op.Row); err != nil {
			t.Fatal(err)
		}
	}
	return enc.Bytes()
}

// insert routes one insert as a one-op payload, the shape a daemon's
// /insert sends, and returns the routing error or the op's rejection.
func (tc *testCluster) insert(t testing.TB, rel string, row map[string]string) error {
	t.Helper()
	rep, err := tc.rt.Batch(context.Background(), encodePayload(t, tc.sch, []indep.BatchOp{{Rel: rel, Row: row}}, nil))
	if err == nil && len(rep.Rejected) > 0 {
		err = fmt.Errorf("rejected: %s", rep.Rejected[0].Error)
	}
	return err
}

// reportsEqual compares two batch reports by counts and rejection
// positions. Error strings are compared by code only: the shard and the
// oracle phrase the same violation against different local states.
func reportsEqual(a, b *indep.BatchReport) string {
	if a.Ops != b.Ops || a.Processed != b.Processed || a.Applied != b.Applied {
		return fmt.Sprintf("counts differ: ops %d/%d processed %d/%d applied %d/%d",
			a.Ops, b.Ops, a.Processed, b.Processed, a.Applied, b.Applied)
	}
	if len(a.Rejected) != len(b.Rejected) {
		return fmt.Sprintf("rejected %d vs %d", len(a.Rejected), len(b.Rejected))
	}
	for i := range a.Rejected {
		if a.Rejected[i].Index != b.Rejected[i].Index || a.Rejected[i].Code != b.Rejected[i].Code {
			return fmt.Sprintf("rejection %d: (%d,%s) vs (%d,%s)", i,
				a.Rejected[i].Index, a.Rejected[i].Code, b.Rejected[i].Index, b.Rejected[i].Code)
		}
	}
	return ""
}

var windowPanel = [][]string{{"C", "T"}, {"C", "S"}, {"C", "H", "R"}, {"C", "T", "S"}, {"T", "S"}}

// checkOracle diffs the assembled cluster state (by value names — the
// gathered state interns in arrival order, so ids are not comparable) and
// the window panel against the single-node oracle.
func (tc *testCluster) checkOracle(t testing.TB, oracle *indep.ConcurrentStore) {
	t.Helper()
	if diffs := indep.DiffDatabasesByName(oracle.Snapshot(), tc.assembled(t)); diffs != nil {
		t.Fatalf("cluster diverged from single node: %v", diffs)
	}
	for _, attrs := range windowPanel {
		want, err := oracle.QueryCtx(context.Background(), indep.WindowQuery{Attrs: attrs})
		if err != nil {
			t.Fatalf("oracle window %v: %v", attrs, err)
		}
		// A window that fails on a shard fault after the router's own retries
		// is retried, as a client does on the 503 it maps to.
		var got *indep.WindowResult
		var se *cluster.ShardError
		for attempt := 0; attempt < 10; attempt++ {
			if got, err = tc.rt.Window(context.Background(), indep.WindowQuery{Attrs: attrs}); !errors.As(err, &se) {
				break
			}
		}
		if err != nil {
			t.Fatalf("router window %v: %v", attrs, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || got.Total != want.Total {
			t.Fatalf("router window %v: %d rows (total %d), oracle %d rows (total %d)",
				attrs, len(got.Rows), got.Total, len(want.Rows), want.Total)
		}
	}
}

// TestRouterBatchMatchesSingleNode is the core equivalence: a mixed
// insert/delete payload routed across 3 shards produces the same per-op
// report and the same observable state as one node applying it serially.
func TestRouterBatchMatchesSingleNode(t *testing.T) {
	sch := runningExample(t)
	rng := rand.New(rand.NewSource(1))
	tc := newTestCluster(t, sch, 3, cluster.Options{}, nil)
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 8; round++ {
		ops := clusterOps(rng, 120)
		var dels []indep.BatchOp
		for _, op := range ops {
			if rng.Intn(12) == 0 {
				dels = append(dels, op)
			}
		}
		payload := encodePayload(t, sch, ops, dels)

		want, err := oracle.ApplyBinBatchPartial(context.Background(), payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.rt.Batch(context.Background(), payload)
		if err != nil {
			t.Fatal(err)
		}
		if msg := reportsEqual(got, want); msg != "" {
			t.Fatalf("round %d: %s", round, msg)
		}
		if round == 0 && len(want.Rejected) == 0 {
			t.Fatal("workload produced no rejections; violation bait is broken")
		}
	}
	tc.checkOracle(t, oracle)
}

// TestRouterWindowFilters pins that where/project/limit survive the
// scatter-gather path unchanged.
func TestRouterWindowFilters(t *testing.T) {
	sch := runningExample(t)
	tc := newTestCluster(t, sch, 3, cluster.Options{}, nil)
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	payload := encodePayload(t, sch, clusterOps(rng, 90), nil)
	if _, err := oracle.ApplyBinBatchPartial(ctx, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.rt.Batch(ctx, payload); err != nil {
		t.Fatal(err)
	}
	q := indep.WindowQuery{
		Attrs:   []string{"C", "T", "S"},
		Where:   map[string]string{"S": "s1"},
		Project: []string{"C", "S"},
		Limit:   5,
	}
	want, err := oracle.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.rt.Window(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || got.Total != want.Total {
		t.Fatalf("filtered window: got %v (total %d), want %v (total %d)",
			got.Rows, got.Total, want.Rows, want.Total)
	}
}

// TestRouterFallbackMode pins the degraded path: a non-independent schema
// pins everything to one shard, windows are proxied, and status says so.
func TestRouterFallbackMode(t *testing.T) {
	sch, err := indep.Parse("R(A,B); S(B,C)", "C -> A")
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, sch, 3, cluster.Options{}, nil)
	shard, ok := tc.rt.Fallback()
	if !ok {
		t.Fatal("router did not report fallback mode")
	}
	st := tc.rt.Status()
	if st.Mode != "fallback" || st.Reason == "" {
		t.Fatalf("status = %q (%q), want fallback with a reason", st.Mode, st.Reason)
	}
	ctx := context.Background()
	if err := tc.insert(t, "R", map[string]string{"A": "a1", "B": "b1"}); err != nil {
		t.Fatal(err)
	}
	if err := tc.insert(t, "S", map[string]string{"B": "b1", "C": "c1"}); err != nil {
		t.Fatal(err)
	}
	for name, store := range tc.stores {
		rows := store.Rows()
		if name == shard && rows != 2 {
			t.Errorf("designated shard %s holds %d rows, want 2", name, rows)
		}
		if name != shard && rows != 0 {
			t.Errorf("idle shard %s holds %d rows, want 0", name, rows)
		}
	}
	res, err := tc.rt.Window(ctx, indep.WindowQuery{Attrs: []string{"A", "B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 1 {
		t.Fatalf("proxied window total = %d, want 1", res.Total)
	}
}

// TestRouterShardDown kills one shard, then two of three, and demands that
// every routed call needing a dead shard fails as a ShardError (never as a
// rejection) while the live shards keep serving: a batch spanning every
// shard names each dead shard, sorted, wraps the first in membership order
// and reports only the live shards' ops; the health table and the
// forward-error metric agree; and reviving heals everything.
func TestRouterShardDown(t *testing.T) {
	sch := runningExample(t)
	injectors := make(map[string]*replt.ShardInjector)
	tc := newTestCluster(t, sch, 3, cluster.Options{Backoff: 1},
		func(shard string, tr cluster.Transport) cluster.Transport {
			in := replt.NewShardInjector(shard, tr, replt.ShardFaults{}, rand.New(rand.NewSource(3)))
			injectors[shard] = in
			return in
		})
	ctx := context.Background()
	members := []string{"shard1", "shard2", "shard3"}

	// rowOf returns a fresh CT row owned by the shard.
	next := 0
	rowOf := func(shard string) map[string]string {
		for ; ; next++ {
			row := map[string]string{"C": fmt.Sprintf("c%d", next), "T": "t"}
			owner, err := tc.rt.Placement().Owner("CT", row)
			if err != nil {
				t.Fatal(err)
			}
			if owner == shard {
				next++
				return row
			}
		}
	}

	for _, dead := range [][]string{{"shard2"}, {"shard1", "shard3"}} { // membership order
		var live []string
		for _, m := range members {
			if !slices.Contains(dead, m) {
				live = append(live, m)
			}
		}
		for _, d := range dead {
			injectors[d].Kill()
		}

		err := tc.insert(t, "CT", rowOf(dead[len(dead)-1]))
		var se *cluster.ShardError
		if !errors.As(err, &se) || se.Shard != dead[len(dead)-1] {
			t.Fatalf("%v down: insert to a dead shard: got %v, want ShardError{%s}", dead, err, dead[len(dead)-1])
		}
		if indep.Rejected(err) {
			t.Fatal("an unreachable shard must not read as a constraint rejection")
		}
		if err := tc.insert(t, "CT", rowOf(live[0])); err != nil {
			t.Fatalf("%v down: insert to a live shard: %v", dead, err)
		}

		// One op per shard, in reverse membership order.
		var ops []indep.BatchOp
		for i := len(members) - 1; i >= 0; i-- {
			ops = append(ops, indep.BatchOp{Rel: "CT", Row: rowOf(members[i])})
		}
		rep, err := tc.rt.Batch(ctx, encodePayload(t, sch, ops, nil))
		if want := fmt.Sprintf("%d of 3 shards failed (%v)", len(dead), dead); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%v down: batch error %v, want it to name %q", dead, err, want)
		}
		if !errors.As(err, &se) || se.Shard != dead[0] {
			t.Fatalf("%v down: batch error wraps %v, want ShardError{%s}", dead, err, dead[0])
		}
		if rep == nil || rep.Ops != len(ops) || rep.Processed != len(live) || rep.Applied != len(live) || len(rep.Rejected) != 0 {
			t.Fatalf("%v down: report %+v, want only the %d live shards' ops", dead, rep, len(live))
		}

		tc.rt.CheckHealth(ctx)
		reg := obs.NewRegistry()
		tc.rt.RegisterMetrics(reg)
		fams, err := obs.ParseExposition(reg.Expose())
		if err != nil {
			t.Fatal(err)
		}
		errsByShard := make(map[string]float64)
		for _, f := range fams {
			if f.Name == "indep_cluster_forward_errors_total" {
				for _, smp := range f.Samples {
					errsByShard[smp.Label("shard")] = smp.Value
				}
			}
		}
		for _, h := range tc.rt.Health() {
			if down := slices.Contains(dead, h.Name); h.Healthy == down {
				t.Errorf("%v down: health table has %s healthy=%v", dead, h.Name, h.Healthy)
			}
			if got := errsByShard[h.Name]; got != float64(h.Failures) {
				t.Errorf("%v down: %s forward errors %v, health failures %d", dead, h.Name, got, h.Failures)
			}
		}

		// A gather that needs a dead shard fails as a ShardError too ([C S T]
		// reads CS and CT)...
		if _, err := tc.rt.Window(ctx, indep.WindowQuery{Attrs: []string{"C", "S", "T"}}); !errors.As(err, &se) {
			t.Fatalf("%v down: window over a dead shard: got %v, want ShardError", dead, err)
		}
		// ...and the shards coming back heal everything with no intervention.
		for _, d := range dead {
			injectors[d].Revive()
		}
		if _, err := tc.rt.Window(ctx, indep.WindowQuery{Attrs: []string{"C", "S", "T"}}); err != nil {
			t.Fatalf("%v down: window after revive: %v", dead, err)
		}
		for _, h := range tc.rt.CheckHealth(ctx) {
			if !h.Healthy {
				t.Errorf("%v down: health table did not recover %s after revive", dead, h.Name)
			}
		}
	}
}

// TestClusterSmokeFaulty is the CI cluster-smoke: a fixed-seed 3-shard
// cluster driven through flaky transports (disconnects and duplicated
// forwards on every shard) with one shard killed -9 mid-run, retrying
// whole payloads until they land. Afterward the gathered state and the
// window panel must match the single-node oracle bit for bit.
func TestClusterSmokeFaulty(t *testing.T) {
	sch := runningExample(t)
	rng := rand.New(rand.NewSource(42))
	injectors := make(map[string]*replt.ShardInjector)
	tc := newTestCluster(t, sch, 3, cluster.Options{Retries: 2, Backoff: 1},
		func(shard string, tr cluster.Transport) cluster.Transport {
			in := replt.NewShardInjector(shard, tr,
				replt.ShardFaults{Disconnect: 0.25, Duplicate: 0.25},
				rand.New(rand.NewSource(int64(len(shard)*1000+int(shard[len(shard)-1])))))
			injectors[shard] = in
			return in
		})
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// deliver retries a payload until every shard has applied it — the
	// client contract: partial-failure reports plus idempotent re-applies
	// mean blind whole-payload retries converge.
	deliver := func(payload []byte) *indep.BatchReport {
		t.Helper()
		for attempt := 0; attempt < 100; attempt++ {
			rep, err := tc.rt.Batch(ctx, payload)
			if err == nil {
				return rep
			}
			var se *cluster.ShardError
			if !errors.As(err, &se) {
				t.Fatalf("non-shard batch error: %v", err)
			}
		}
		t.Fatal("payload failed to land in 100 attempts")
		return nil
	}

	const rounds, killAt, reviveAt = 12, 4, 8
	for round := 0; round < rounds; round++ {
		if round == killAt {
			injectors["shard1"].Kill() // kill -9 mid-run; retries span the outage
		}
		if round == reviveAt {
			injectors["shard1"].Revive()
		}
		ops := clusterOps(rng, 60)
		var dels []indep.BatchOp
		for _, op := range ops {
			// Under at-least-once delivery only payloads whose re-application
			// is a fixpoint converge. CS and CHR inserts can never be
			// rejected (no FD can fire on them in this workload), so deleting
			// their rows is idempotent; a CT delete could unshield a
			// conflicting CT insert in the same payload and flip its outcome
			// on redelivery — that is the documented client contract, not a
			// router defect, so the smoke stays inside it.
			if op.Rel != "CT" && rng.Intn(10) == 0 {
				dels = append(dels, op)
			}
		}
		payload := encodePayload(t, sch, ops, dels)
		want, err := oracle.ApplyBinBatchPartial(ctx, payload)
		if err != nil {
			t.Fatal(err)
		}
		if round >= killAt && round < reviveAt {
			// The dead shard owns some ranges: a payload touching them
			// cannot fully land; park it and verify the failure shape.
			rep, err := tc.rt.Batch(ctx, payload)
			if err == nil {
				// Every op happened to land on live shards; nothing to park.
				if msg := reportsEqual(rep, want); msg != "" {
					t.Fatalf("round %d (outage, all live): %s", round, msg)
				}
				continue
			}
			if !strings.Contains(err.Error(), "shard") {
				t.Fatalf("round %d: outage error does not name a shard: %v", round, err)
			}
			// Re-deliver the same payload after revival rounds do — here we
			// just retry immediately after reviving temporarily to keep the
			// oracle in lockstep (the real client would retry later).
			injectors["shard1"].Revive()
			rep = deliver(payload)
			injectors["shard1"].Kill()
			if msg := reportsEqual(rep, want); msg != "" {
				t.Fatalf("round %d (after retry): %s", round, msg)
			}
			continue
		}
		rep := deliver(payload)
		if msg := reportsEqual(rep, want); msg != "" {
			t.Fatalf("round %d: %s", round, msg)
		}
	}

	tc.checkOracle(t, oracle)

	var faults replt.ShardInjectorStats
	for _, in := range injectors {
		s := in.Stats()
		faults.Disconnects += s.Disconnects
		faults.Duplicates += s.Duplicates
		faults.Killed += s.Killed
	}
	if faults.Disconnects == 0 || faults.Duplicates == 0 || faults.Killed == 0 {
		t.Fatalf("fault schedule did not exercise every class: %+v", faults)
	}
	t.Logf("faults delivered: %+v", faults)
}

// TestRouterRejectedIndexRemap pins index reassembly: rejections reported
// by different shards come back under the client's op indices, sorted.
func TestRouterRejectedIndexRemap(t *testing.T) {
	sch := runningExample(t)
	tc := newTestCluster(t, sch, 3, cluster.Options{}, nil)
	ctx := context.Background()

	// Seed conflicting T values for many C's, then send a batch where every
	// op re-asserts a different T: every op must be rejected, across
	// whatever shards the C's hash to.
	var seed, clash []indep.BatchOp
	for i := 0; i < 24; i++ {
		c := fmt.Sprintf("c%d", i)
		seed = append(seed, indep.BatchOp{Rel: "CT", Row: map[string]string{"C": c, "T": "t-good"}})
		clash = append(clash, indep.BatchOp{Rel: "CT", Row: map[string]string{"C": c, "T": "t-bad"}})
	}
	if _, err := tc.rt.Batch(ctx, encodePayload(t, sch, seed, nil)); err != nil {
		t.Fatal(err)
	}
	rep, err := tc.rt.Batch(ctx, encodePayload(t, sch, clash, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 24 || rep.Processed != 24 || rep.Applied != 0 || len(rep.Rejected) != 24 {
		t.Fatalf("report = %+v, want 24 ops all rejected", rep)
	}
	for i, o := range rep.Rejected {
		if o.Index != i {
			t.Fatalf("rejection %d carries index %d; remap or sort is broken", i, o.Index)
		}
		if o.Code != "rejected" {
			t.Fatalf("rejection %d code = %q", i, o.Code)
		}
	}
}

// FuzzClusterRoute feeds arbitrary payloads to the router and demands it
// either rejects them exactly like a single node's decoder or applies them
// to exactly a single node's state.
func FuzzClusterRoute(f *testing.F) {
	sch, err := indep.Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ops := clusterOps(rng, 12)
	enc := indep.NewBinBatchEncoder(sch)
	for _, op := range ops {
		if err := enc.Add(op.Rel, op.Row); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Delete(ops[0].Rel, ops[0].Row); err != nil {
		f.Fatal(err)
	}
	valid := enc.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("IBW1garbage"))
	for _, p := range hostilePayloads() {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		tc := newTestCluster(t, sch, 3, cluster.Options{}, nil)
		oracle, err := sch.OpenConcurrentStore()
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		want, wantErr := oracle.ApplyBinBatchPartial(ctx, payload)
		got, gotErr := tc.rt.Batch(ctx, payload)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("oracle err %v, router err %v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if msg := reportsEqual(got, want); msg != "" {
			t.Fatal(msg)
		}
		if diffs := indep.DiffDatabasesByName(oracle.Snapshot(), tc.assembled(t)); diffs != nil {
			t.Fatalf("state diverged: %v", diffs)
		}
	})
}

// hostilePayloads are payloads under client ids a BinBatchEncoder never
// picks, each inserting CT(c,t), CS(c,s) and CHR(c,h,r): ids 0, -5 and
// 2^40; sparse ids; an id bound in frame 1 outside the dense id table (it
// spans [0, 2·bindings declared]) and used after frame 2's bindings grew
// the table past it; and that payload with the id rebound in a frame 3, to its own
// name and then to another, which is malformed.
func hostilePayloads() [][]byte {
	record := func(c, t, s, h, r relation.Value) wal.Record {
		return wal.Record{
			Interns: []wal.Binding{{Value: c, Name: "c"}, {Value: t, Name: "t"}, {Value: s, Name: "s"},
				{Value: h, Name: "h"}, {Value: r, Name: "r"}},
			Ops: []wal.TupleOp{{Rel: 0, Tuple: relation.Tuple{c, t}}, {Rel: 1, Tuple: relation.Tuple{c, s}},
				{Rel: 2, Tuple: relation.Tuple{c, h, r}}},
		}
	}
	grown := wal.AppendRecordFrame(nil, wal.Record{Interns: []wal.Binding{{Value: 9, Name: "c"}}})
	rec := record(9, 1, 2, 3, 4)
	rec.Interns = rec.Interns[1:]
	for _, v := range []relation.Value{5, 6, 7, 8, 10} {
		rec.Interns = append(rec.Interns, wal.Binding{Value: v, Name: fmt.Sprint("filler", v)})
	}
	grown = wal.AppendRecordFrame(grown, rec)
	rebind := func(name string) []byte {
		return wal.AppendRecordFrame(slices.Clone(grown), wal.Record{Interns: []wal.Binding{{Value: 9, Name: name}}})
	}
	return [][]byte{
		wal.AppendRecordFrame(nil, record(0, -5, 1<<40, 1, 2)),
		wal.AppendRecordFrame(nil, record(1000, 3_000_000, 77, 1<<20, 9999)),
		grown,
		rebind("c"),
		rebind("other"),
	}
}

// TestRouterHostileIDsMatchSingleNode: on payloads whose client ids an
// encoder never picks, the router, which forwards the client's ids, and a
// single node, which re-interns them, fail with the same error or agree on
// the report and the state.
func TestRouterHostileIDsMatchSingleNode(t *testing.T) {
	sch := runningExample(t)
	ctx := context.Background()
	for i, payload := range hostilePayloads() {
		tc := newTestCluster(t, sch, 3, cluster.Options{}, nil)
		oracle, err := sch.OpenConcurrentStore()
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := oracle.ApplyBinBatchPartial(ctx, payload)
		got, gotErr := tc.rt.Batch(ctx, payload)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("payload %d: single node err %v, router err %v", i, wantErr, gotErr)
			}
			continue
		}
		if msg := reportsEqual(got, want); msg != "" || want.Applied != 3 {
			t.Fatalf("payload %d: %s (single node applied %d)", i, msg, want.Applied)
		}
		if diffs := indep.DiffDatabasesByName(oracle.Snapshot(), tc.assembled(t)); diffs != nil {
			t.Fatalf("payload %d: state diverged: %v", i, diffs)
		}
	}
}

// TestRouterSubBatchOneCommit pins that a routed sub-batch is one commit on
// its shard: a 64-op client batch with rejections and deletes mixed in adds
// at most one WAL record to each durable shard, and the router's report
// still equals the single node's.
func TestRouterSubBatchOneCommit(t *testing.T) {
	sch := runningExample(t)
	var members []cluster.Member
	opts := cluster.Options{Transports: make(map[string]cluster.Transport)}
	shards := make(map[string]*indep.DurableStore)
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("shard%d", i)
		ds, err := sch.OpenDurableStore(t.TempDir(), indep.DurableOptions{NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		shards[name] = ds
		members = append(members, cluster.Member{Name: name, URL: "local://" + name})
		opts.Transports[name] = &cluster.LocalTransport{Shard: name, Store: ds.ConcurrentStore}
	}
	rt, err := cluster.NewRouter(sch, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		ops := clusterOps(rng, 64)
		payload := encodePayload(t, sch, ops[:48], ops[48:])
		records := make(map[string]uint64)
		for name, ds := range shards {
			records[name] = ds.WAL().Records
		}
		rep, err := rt.Batch(ctx, payload)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.ApplyBinBatchPartial(ctx, payload)
		if err != nil {
			t.Fatal(err)
		}
		if diff := reportsEqual(want, rep); diff != "" {
			t.Fatalf("round %d: %s", round, diff)
		}
		if rep.Changed <= len(shards) {
			t.Fatalf("round %d changed only %d tuples; per-op commits would pass unnoticed", round, rep.Changed)
		}
		for name, ds := range shards {
			if n := ds.WAL().Records - records[name]; n > 1 {
				t.Fatalf("round %d: %s logged %d records for one sub-batch", round, name, n)
			}
		}
	}
}
