package indep

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indep/internal/relation"
	"indep/internal/wal"
)

// partialOp is one operation of a generated partial payload, in frame
// order.
type partialOp struct {
	rel string
	row map[string]string
	del bool
}

// partialSchemas are the two maintainers' schemas: the running example takes
// the guard, the paper's CS402 schema takes the chase.
func partialSchemas() map[string]*Schema {
	return map[string]*Schema{
		"guard": MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R"),
		"chase": MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D"),
	}
}

// randomPartialPayload builds a payload of one to four frames, each with up
// to eight inserts and deletes over a three-value domain per attribute, so
// conflicts, duplicates, deletes of absent rows and an insert that only an
// earlier frame's delete admits all occur. A delete now and then names a
// value no insert ever used. Each frame binds the client ids its ops use
// first. It returns the payload and its operations in frame order: each
// frame's inserts, then its deletes.
func randomPartialPayload(t *testing.T, rng *rand.Rand, sch *Schema) ([]byte, []partialOp) {
	t.Helper()
	var payload []byte
	var ops []partialOp
	rels := sch.Relations()
	ids := make(map[string]relation.Value)
	for f, frames := 0, 1+rng.Intn(4); f < frames; f++ {
		var rec wal.Record
		intern := func(name string) relation.Value {
			id, ok := ids[name]
			if !ok {
				id = relation.Value(len(ids) + 1)
				ids[name] = id
				rec.Interns = append(rec.Interns, wal.Binding{Value: id, Name: name})
			}
			return id
		}
		var ins, dels []partialOp
		for k, n := 0, 1+rng.Intn(8); k < n; k++ {
			op := partialOp{rel: rels[rng.Intn(len(rels))], del: rng.Intn(3) == 0}
			attrs, _ := sch.RelationAttrs(op.rel)
			op.row = make(map[string]string, len(attrs))
			for _, a := range attrs {
				op.row[a] = fmt.Sprintf("%s%d", a, rng.Intn(3))
			}
			if op.del && rng.Intn(5) == 0 {
				op.row[attrs[0]] = fmt.Sprintf("ghost%d", rng.Intn(1000))
			}
			i, tup, err := rowTuple(sch.s, intern, op.rel, op.row)
			if err != nil {
				t.Fatal(err)
			}
			rec.Ops = append(rec.Ops, wal.TupleOp{Rel: i, Tuple: tup, Delete: op.del})
			if op.del {
				dels = append(dels, op)
			} else {
				ins = append(ins, op)
			}
		}
		payload = wal.AppendRecordFrame(payload, rec)
		ops = append(append(ops, ins...), dels...)
	}
	return payload, ops
}

// applyPerOp is the oracle: each operation applied alone, in frame order,
// through the store's single-op API, and the report that loop adds up to.
func applyPerOp(t *testing.T, cs *ConcurrentStore, ops []partialOp) *BatchReport {
	t.Helper()
	rep := &BatchReport{Ops: len(ops)}
	for i, op := range ops {
		rep.Processed++
		if op.del {
			ok, err := cs.Delete(op.rel, op.row)
			if err != nil {
				t.Fatal(err)
			}
			rep.Applied++
			if ok {
				rep.Changed++
			}
			continue
		}
		before := cs.Rows()
		switch err := cs.Insert(op.rel, op.row); {
		case Rejected(err):
			rep.Rejected = append(rep.Rejected, OpOutcome{Index: i, Code: "rejected", Error: err.Error()})
		case err != nil:
			t.Fatal(err)
		default:
			rep.Applied++
			if cs.Rows() > before {
				rep.Changed++
			}
		}
	}
	return rep
}

// opCounts is what indep_engine_{inserts,rejects,deletes}_total expose,
// summed per relation.
func opCounts(cs *ConcurrentStore) map[string][3]uint64 {
	out := make(map[string][3]uint64)
	for _, st := range cs.Stats() {
		out[st.Relation] = [3]uint64{st.Inserts, st.Rejects, st.Deletes}
	}
	return out
}

// countsDelta is after minus before, per relation.
func countsDelta(before, after map[string][3]uint64) map[string][3]uint64 {
	out := make(map[string][3]uint64, len(after))
	for rel, a := range after {
		b := before[rel]
		out[rel] = [3]uint64{a[0] - b[0], a[1] - b[1], a[2] - b[2]}
	}
	return out
}

// TestApplyBinBatchPartialMatchesPerOp is the partial policy's property on
// both maintainers: over random multi-frame payloads applied in sequence to
// a durable store, the one-call, one-commit ApplyBinBatchPartial gives the
// per-op loop's report (indices and error texts included), state, counters
// and dictionary size, and every reopen recovers the live state without a
// skipped record — which holds only if each commit lists its inserts
// before its deletes.
func TestApplyBinBatchPartialMatchesPerOp(t *testing.T) {
	const payloads, reopenEvery = 600, 150
	for name, sch := range partialSchemas() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			dir := t.TempDir()
			ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { ds.Close() }()
			if ds.FastPath() != (name == "guard") {
				t.Fatalf("FastPath = %v on the %s schema", ds.FastPath(), name)
			}
			oracle, err := sch.OpenConcurrentStore()
			if err != nil {
				t.Fatal(err)
			}
			var rejected, changed, cut int
			for p := 1; p <= payloads; p++ {
				payload, ops := randomPartialPayload(t, rng, sch)
				oBefore, sBefore, records := opCounts(oracle), opCounts(ds.ConcurrentStore), ds.WAL().Records
				want := applyPerOp(t, oracle, ops)
				got, err := ds.ApplyBinBatchPartial(context.Background(), payload)
				if err != nil {
					t.Fatalf("payload %d: %v", p, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("payload %d: report\n  %+v\nwant the per-op loop's\n  %+v", p, got, want)
				}
				if diffs := DiffDatabasesByName(oracle.Snapshot(), ds.Snapshot()); diffs != nil {
					t.Fatalf("payload %d: state diverged from the per-op loop: %v", p, diffs)
				}
				if o, s := countsDelta(oBefore, opCounts(oracle)), countsDelta(sBefore, opCounts(ds.ConcurrentStore)); !reflect.DeepEqual(o, s) {
					t.Fatalf("payload %d: counters %v, want the per-op loop's %v", p, s, o)
				}
				if o, s := oracle.eng.Dict().Len(), ds.eng.Dict().Len(); o != s {
					t.Fatalf("payload %d: dictionary holds %d names, the per-op loop's %d", p, s, o)
				}
				rejected += len(got.Rejected)
				changed += got.Changed
				if n := ds.WAL().Records - records; n > 1 {
					cut++
				} else if n == 0 && got.Changed > 0 {
					t.Fatalf("payload %d changed %d tuples and logged no record", p, got.Changed)
				}
				if p%reopenEvery == 0 {
					if err := ds.Close(); err != nil {
						t.Fatal(err)
					}
					if ds, err = sch.OpenDurableStore(dir, DurableOptions{NoFsync: true}); err != nil {
						t.Fatalf("reopen after payload %d: %v", p, err)
					}
					if rec := ds.Recovery(); rec.Skipped != 0 {
						t.Fatalf("reopen after payload %d skipped %d of %d records", p, rec.Skipped, rec.Records)
					}
					if diffs := DiffDatabasesByName(oracle.Snapshot(), ds.Snapshot()); diffs != nil {
						t.Fatalf("reopen after payload %d diverged from the live state: %v", p, diffs)
					}
				}
			}
			// The sample must exercise what the property is about.
			if rejected == 0 || changed == 0 || cut == 0 {
				t.Fatalf("degenerate sample: %d rejections, %d changes, %d payloads cut into several commits",
					rejected, changed, cut)
			}
		})
	}
}

// TestPartialPayloadOneRecord pins the partial policy's write cost on a
// durable store with fsync on: a 64-op payload mixing accepted inserts,
// duplicates, rejections and deletes is one WAL record, one fsync and one
// version bump, and a payload whose every op is rejected logs nothing.
func TestPartialPayloadOneRecord(t *testing.T) {
	sch := MustParse("CT(C,T); CS(C,S)", "C -> T")
	ds, err := sch.OpenDurableStore(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ct := func(c, t int) map[string]string {
		return map[string]string{"C": fmt.Sprintf("c%d", c), "T": fmt.Sprintf("t%d", t)}
	}
	cs := func(c, s int) map[string]string {
		return map[string]string{"C": fmt.Sprintf("c%d", c), "S": fmt.Sprintf("s%d", s)}
	}
	for i := 0; i < 16; i++ {
		if err := ds.InsertBatch([]BatchOp{{"CT", ct(i, i)}, {"CS", cs(i, i)}}); err != nil {
			t.Fatal(err)
		}
	}
	enc := NewBinBatchEncoder(sch)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		must(enc.Add("CT", ct(i, i+1)))  // rejected: c_i teaches t_i
		must(enc.Add("CT", ct(i, i)))    // duplicate
		must(enc.Add("CS", cs(i+16, i))) // new
		must(enc.Delete("CS", cs(i, i))) // present
	}
	before, v0 := ds.WAL(), ds.eng.Version()
	rep, err := ds.ApplyBinBatchPartial(context.Background(), enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 64 || rep.Processed != 64 || rep.Applied != 48 || rep.Changed != 32 || len(rep.Rejected) != 16 {
		t.Fatalf("report %+v, want 64 ops, 48 applied, 32 changed, 16 rejected", rep)
	}
	after := ds.WAL()
	if after.Records != before.Records+1 || after.Syncs != before.Syncs+1 || ds.eng.Version() != v0+1 {
		t.Fatalf("64-op partial payload took %d records, %d fsyncs and %d version bumps, want 1, 1 and 1",
			after.Records-before.Records, after.Syncs-before.Syncs, ds.eng.Version()-v0)
	}

	enc.Reset()
	for i := 0; i < 16; i++ {
		must(enc.Add("CT", ct(i, i+2)))
	}
	rep, err = ds.ApplyBinBatchPartial(context.Background(), enc.Bytes())
	if err != nil || len(rep.Rejected) != 16 {
		t.Fatalf("all-rejected payload: report %+v, err %v", rep, err)
	}
	if end := ds.WAL(); end.Records != after.Records || end.Syncs != after.Syncs || ds.eng.Version() != v0+1 {
		t.Fatalf("all-rejected payload logged %d records and %d fsyncs, want none",
			end.Records-after.Records, end.Syncs-after.Syncs)
	}
}

// TestPartialDeleteThenInsertRecovers pins the commit cut. A payload of two
// frames, [delete CT(c1,t1)] then [insert CT(c1,t2)], is accepted whole in
// partial mode: the delete makes room for the insert. One record would
// replay its insert before its delete, and the insert would be rejected;
// the engine commits the two as two records, so recovery and a follower
// both end with CT(c1,t2).
func TestPartialDeleteThenInsertRecovers(t *testing.T) {
	sch := MustParse("CT(C,T); CS(C,S)", "C -> T")
	dir := t.TempDir()
	ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ds.Close() }()
	if err := ds.Insert("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	f, err := sch.OpenFollower(t.TempDir(), ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ids := map[string]relation.Value{"c1": 1, "t1": 2, "t2": 3}
	payload := wal.AppendRecordFrame(nil, wal.Record{
		Interns: []wal.Binding{{Value: 1, Name: "c1"}, {Value: 2, Name: "t1"}},
		Ops:     []wal.TupleOp{{Rel: 0, Tuple: relation.Tuple{ids["c1"], ids["t1"]}, Delete: true}},
	})
	payload = wal.AppendRecordFrame(payload, wal.Record{
		Interns: []wal.Binding{{Value: 3, Name: "t2"}},
		Ops:     []wal.TupleOp{{Rel: 0, Tuple: relation.Tuple{ids["c1"], ids["t2"]}}},
	})
	records := ds.WAL().Records
	rep, err := ds.ApplyBinBatchPartial(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 2 || rep.Changed != 2 || len(rep.Rejected) != 0 {
		t.Fatalf("report %+v, want both ops applied", rep)
	}
	if n := ds.WAL().Records - records; n != 2 {
		t.Fatalf("delete-then-insert payload logged %d records, want 2", n)
	}
	want := sch.NewDatabase()
	if err := want.Insert("CT", map[string]string{"C": "c1", "T": "t2"}); err != nil {
		t.Fatal(err)
	}
	if diffs := DiffDatabasesByName(want, ds.Snapshot()); diffs != nil {
		t.Fatalf("live state: %v", diffs)
	}

	waitCaughtUp(t, f, ds)
	if diffs := DiffDatabasesByName(want, f.Snapshot()); diffs != nil {
		t.Fatalf("follower diverged: %v", diffs)
	}
	if st := f.ReplStats(); st.SkippedRecords != 0 {
		t.Fatalf("follower skipped %d records", st.SkippedRecords)
	}

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = sch.OpenDurableStore(dir, DurableOptions{NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	if rec := ds.Recovery(); rec.Skipped != 0 {
		t.Fatalf("recovery skipped %d records", rec.Skipped)
	}
	if diffs := DiffDatabasesByName(want, ds.Snapshot()); diffs != nil {
		t.Fatalf("recovered state: %v", diffs)
	}
}

// TestPartialReaderSeesWholeSubBatch runs a reader against a writer of
// partial payloads, each inserting eight CS rows for a fresh course,
// deleting the previous payload's eight and carrying one rejected insert.
// A partial payload is one commit, so every snapshot holds exactly one
// payload's rows, never part of two. Run it under -race.
func TestPartialReaderSeesWholeSubBatch(t *testing.T) {
	const payloads, width = 200, 8
	sch := MustParse("CT(C,T); CS(C,S)", "C -> T")
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Insert("CT", map[string]string{"C": "x", "T": "t0"}); err != nil {
		t.Fatal(err)
	}
	row := func(c, s int) map[string]string {
		return map[string]string{"C": fmt.Sprintf("c%d", c), "S": fmt.Sprintf("s%d", s)}
	}
	enc := NewBinBatchEncoder(sch)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for p := 0; p < payloads; p++ {
			enc.Reset()
			for s := 0; s < width; s++ {
				if err := enc.Add("CS", row(p, s)); err != nil {
					t.Error(err)
					return
				}
				if p > 0 {
					if err := enc.Delete("CS", row(p-1, s)); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := enc.Add("CT", map[string]string{"C": "x", "T": "t1"}); err != nil {
				t.Error(err)
				return
			}
			rep, err := cs.ApplyBinBatchPartial(context.Background(), enc.Bytes())
			if err != nil || len(rep.Rejected) != 1 {
				t.Errorf("payload %d: report %+v, err %v", p, rep, err)
				return
			}
		}
	}()
	reads := 0
	for !done.Load() || reads == 0 {
		rows, err := cs.Snapshot().Tuples("CS")
		if err != nil {
			t.Fatal(err)
		}
		courses := make(map[string]int)
		for _, r := range rows {
			courses[r["C"]]++
		}
		if len(rows) != 0 && (len(rows) != width || len(courses) != 1) {
			t.Fatalf("snapshot holds %d CS rows over courses %v, want one payload's %d", len(rows), courses, width)
		}
		reads++
	}
	wg.Wait()
}
