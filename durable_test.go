package indep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"indep/internal/engine"
	"indep/internal/relation"
	"indep/internal/wal"
)

// starSchema builds an independent star schema (one fact, key-guarded
// dimensions) through the public facade, mirroring the workload generator's
// ShapeStar with one key FD per dimension.
func starSchema(t testing.TB, dims, attrsPerDim int) *Schema {
	t.Helper()
	var rels, fds []string
	var factAttrs []string
	for d := 1; d <= dims; d++ {
		key := fmt.Sprintf("K%d", d)
		attrs := []string{key}
		for a := 1; a <= attrsPerDim; a++ {
			attrs = append(attrs, fmt.Sprintf("D%d_%d", d, a))
		}
		rels = append(rels, fmt.Sprintf("DIM%d(%s)", d, strings.Join(attrs, ",")))
		fds = append(fds, fmt.Sprintf("%s -> %s", key, strings.Join(attrs[1:], " ")))
		factAttrs = append(factAttrs, key)
	}
	rels = append([]string{fmt.Sprintf("FACT(%s)", strings.Join(factAttrs, ","))}, rels...)
	sch, err := Parse(strings.Join(rels, "; "), strings.Join(fds, "; "))
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// starBatch generates n rows spread over the star's relations; each seed
// produces functionally consistent dimension rows.
func starBatch(sch *Schema, dims int, n int) []BatchOp {
	ops := make([]BatchOp, 0, n)
	for i := 0; i < n; i++ {
		seed := i / (dims + 1)
		switch rel := i % (dims + 1); rel {
		case 0:
			row := map[string]string{}
			for d := 1; d <= dims; d++ {
				row[fmt.Sprintf("K%d", d)] = fmt.Sprintf("k%d-%d", d, seed)
			}
			ops = append(ops, BatchOp{Rel: "FACT", Row: row})
		default:
			row := map[string]string{fmt.Sprintf("K%d", rel): fmt.Sprintf("k%d-%d", rel, seed)}
			relName := fmt.Sprintf("DIM%d", rel)
			attrs, _ := sch.RelationAttrs(relName)
			for _, a := range attrs {
				if !strings.HasPrefix(a, "K") {
					row[a] = fmt.Sprintf("v%s-%d", a, seed)
				}
			}
			ops = append(ops, BatchOp{Rel: relName, Row: row})
		}
	}
	return ops
}

// assertLocallyConsistent checks the recovered invariant the paper
// guarantees for independent schemas: every relation satisfies its
// embedded cover, hence the state has a weak instance.
func assertLocallyConsistent(t *testing.T, sch *Schema, ds *DurableStore) {
	t.Helper()
	snap := ds.Snapshot()
	ok, err := snap.Satisfies()
	if err != nil {
		t.Fatalf("satisfies: %v", err)
	}
	if !ok {
		t.Fatal("recovered state is not consistent")
	}
}

// TestKillRestartStarWorkload is the acceptance drill: populate a durable
// store with a star-workload batch, "kill" it (abandon without checkpoint
// or close), and reopen. The recovered snapshot must be byte-identical.
func TestKillRestartStarWorkload(t *testing.T) {
	dir := t.TempDir()
	const dims = 4
	sch := starSchema(t, dims, 3)
	ds, err := sch.OpenDurableStore(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ops := starBatch(sch, dims, 300)
	for i := 0; i < len(ops); i += 64 {
		end := min(i+64, len(ops))
		if err := ds.InsertBatch(ops[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	// A few singles and a delete, to exercise every record kind.
	if err := ds.Insert("DIM1", map[string]string{"K1": "solo", "D1_1": "a", "D1_2": "b", "D1_3": "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Delete("DIM1", map[string]string{"K1": "solo", "D1_1": "a", "D1_2": "b", "D1_3": "c"}); err != nil {
		t.Fatal(err)
	}
	want := ds.Snapshot().String()
	wantRows := ds.Rows()
	// Kill: no Checkpoint, no Close. Every acknowledged write is already
	// fsynced (SyncAlways), which is exactly the crash contract. Only the
	// directory lock is released by hand — the kernel would do that for a
	// real dead process.
	ds.unlock()

	re, err := sch.OpenDurableStore(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if got := re.Snapshot().String(); got != want {
		t.Fatalf("recovered snapshot differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if re.Rows() != wantRows {
		t.Fatalf("recovered %d rows, want %d", re.Rows(), wantRows)
	}
	rec := re.Recovery()
	if rec.Records == 0 || rec.Skipped != 0 {
		t.Fatalf("unexpected recovery stats %+v", rec)
	}
	assertLocallyConsistent(t, sch, re)

	// Recovery is idempotent: writes keep working after recovery.
	if err := re.Insert("DIM1", map[string]string{"K1": "post", "D1_1": "x", "D1_2": "y", "D1_3": "z"}); err != nil {
		t.Fatal(err)
	}
}

func TestDurableCheckpointAndTruncation(t *testing.T) {
	dir := t.TempDir()
	sch := starSchema(t, 3, 2)
	ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.InsertBatch(starBatch(sch, 3, 400)); err != nil {
		t.Fatal(err)
	}
	preDepth := ds.WAL().TotalBytes
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := ds.WAL().TotalBytes; got >= preDepth {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d", preDepth, got)
	}
	// Post-checkpoint traffic, including deletes (which reorder tuples in
	// place — recovery must reproduce the exact layout anyway).
	if err := ds.Insert("DIM1", map[string]string{"K1": "late", "D1_1": "p", "D1_2": "q"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Delete("DIM2", map[string]string{"K2": "k2-0", "D2_1": "vD2_1-0", "D2_2": "vD2_2-0"}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	want := ds.Snapshot().String()

	re, err := sch.OpenDurableStore(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	rec := re.Recovery()
	if rec.CheckpointSeq == 0 || rec.CheckpointTuples == 0 {
		t.Fatalf("checkpoint not used in recovery: %+v", rec)
	}
	if got := re.Snapshot().String(); got != want {
		t.Fatalf("recovered snapshot differs after checkpoint:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	assertLocallyConsistent(t, sch, re)

	// A second checkpoint over the recovered store keeps working.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableMixedBatchOneCommit pins "one payload = one commit = one WAL
// record": a 16-insert + 16-delete binary batch costs exactly one record,
// one commit group, one fsync and one version bump and survives a reopen,
// and a payload turned away by one violating insert leaves the state, the
// version and the log untouched, deletes included.
func TestDurableMixedBatchOneCommit(t *testing.T) {
	dir := t.TempDir()
	sch := MustParse("CT(C,T); CS(C,S)", "C -> T")
	ds, err := sch.OpenDurableStore(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	cs := func(i, j int) map[string]string {
		return map[string]string{"C": fmt.Sprintf("c%d", i), "S": fmt.Sprintf("s%d", j)}
	}
	ct := func(i, j int) map[string]string {
		return map[string]string{"C": fmt.Sprintf("c%d", i), "T": fmt.Sprintf("t%d", j)}
	}
	// Load CT(c_i,t_i), CS(c_i,s_i) and CS(c_i,s_{i+16}), then delete the
	// last again, so the payload below both inserts and deletes.
	for _, st := range []*ConcurrentStore{ds.ConcurrentStore, oracle} {
		for i := 0; i < 16; i++ {
			for _, op := range []BatchOp{{"CT", ct(i, i)}, {"CS", cs(i, i)}, {"CS", cs(i, i+16)}} {
				if err := st.Insert(op.Rel, op.Row); err != nil {
					t.Fatal(err)
				}
			}
			if ok, err := st.Delete("CS", cs(i, i+16)); err != nil || !ok {
				t.Fatalf("delete: %v %v", ok, err)
			}
		}
	}

	enc := NewBinBatchEncoder(sch)
	for i := 0; i < 16; i++ {
		if err := enc.Add("CS", cs(i, i+16)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Delete("CS", cs(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The load logged one record per write: 4 per i.
	before, v0 := ds.WAL(), ds.eng.Version()
	if before.Records != 16*4 {
		t.Fatalf("load logged %d records, want %d", before.Records, 16*4)
	}
	for _, st := range []*ConcurrentStore{ds.ConcurrentStore, oracle} {
		if n, err := st.ApplyBinBatch(context.Background(), enc.Bytes()); err != nil || n != 32 {
			t.Fatalf("ApplyBinBatch = %d, %v", n, err)
		}
	}
	after := ds.WAL()
	if after.Records != before.Records+1 || after.CommitGroups != before.CommitGroups+1 ||
		after.Syncs != before.Syncs+1 {
		t.Fatalf("mixed batch took %d records, %d commit groups and %d fsyncs, want 1, 1 and 1",
			after.Records-before.Records, after.CommitGroups-before.CommitGroups, after.Syncs-before.Syncs)
	}
	if got := ds.eng.Version(); got != v0+1 {
		t.Fatalf("mixed batch bumped the version %d times, want once", got-v0)
	}

	// c0 already has teacher t0, so the insert is a violation; the deletes
	// in the same payload name rows that are present.
	enc.Reset()
	if err := enc.Delete("CS", cs(1, 17)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Add("CT", ct(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Delete("CT", ct(2, 2)); err != nil {
		t.Fatal(err)
	}
	rows, v1 := ds.Rows(), ds.eng.Version()
	if _, err := ds.ApplyBinBatch(context.Background(), enc.Bytes()); !Rejected(err) {
		t.Fatalf("violating payload: got %v, want a rejection", err)
	}
	if ds.Rows() != rows || ds.eng.Version() != v1 || ds.WAL().Records != after.Records {
		t.Fatalf("rejected payload left a trace: rows %d->%d, version %d->%d, records %d->%d",
			rows, ds.Rows(), v1, ds.eng.Version(), after.Records, ds.WAL().Records)
	}
	if diffs := DiffDatabasesByName(oracle.Snapshot(), ds.Snapshot()); diffs != nil {
		t.Fatalf("durable store diverged from the in-memory oracle: %v", diffs)
	}

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := sch.OpenDurableStore(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.Skipped != 0 {
		t.Fatalf("recovery skipped %d records", rec.Skipped)
	}
	if diffs := DiffDatabasesByName(oracle.Snapshot(), re.Snapshot()); diffs != nil {
		t.Fatalf("recovered state diverged from the in-memory oracle: %v", diffs)
	}
}

// TestDurableTornTailMixedPayload is the torn-tail property at commit
// granularity: the tail record is one mixed payload — fresh interns,
// inserts and deletes — and for EVERY byte inside it, truncating the log
// there or corrupting that byte must recover exactly the pre-commit state,
// dictionary included. A commit is one record, so recovery can only ever
// yield a commit prefix of the log, never half a payload.
func TestDurableTornTailMixedPayload(t *testing.T) {
	srcDir := t.TempDir()
	sch := starSchema(t, 2, 2)
	ds, err := sch.OpenDurableStore(srcDir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	load := starBatch(sch, 2, 60)
	if err := ds.InsertBatch(load); err != nil {
		t.Fatal(err)
	}
	pre, preDict, start := ds.Snapshot(), ds.eng.Dict().Len(), ds.ReplPosition()

	enc := NewBinBatchEncoder(sch)
	for i := 0; i < 3; i++ {
		k1, k2 := fmt.Sprintf("tail-k1-%d", i), fmt.Sprintf("tail-k2-%d", i)
		for _, op := range []BatchOp{
			{"DIM1", map[string]string{"K1": k1, "D1_1": "tail-a", "D1_2": fmt.Sprintf("tail-b%d", i)}},
			{"FACT", map[string]string{"K1": k1, "K2": k2}},
		} {
			if err := enc.Add(op.Rel, op.Row); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, op := range load[:6] {
		if err := enc.Delete(op.Rel, op.Row); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := ds.ApplyBinBatch(context.Background(), enc.Bytes()); err != nil || n != 12 {
		t.Fatalf("ApplyBinBatch = %d, %v", n, err)
	}
	end := ds.ReplPosition()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	full := ds.Snapshot()
	if ds.eng.Dict().Len() <= preDict {
		t.Fatal("the tail payload interned no fresh values")
	}

	seg := wal.SegmentFile(start.Seq)
	data, err := os.ReadFile(filepath.Join(srcDir, seg))
	if err != nil {
		t.Fatal(err)
	}
	if end.Seq != start.Seq || end.Off != int64(len(data)) {
		t.Fatalf("payload spans %s..%s of a %d-byte segment", start, end, len(data))
	}
	if _, n, err := wal.NextStreamFrame(data[start.Off:]); err != nil || int64(n) != end.Off-start.Off {
		t.Fatalf("the payload is not one record: first frame %d of %d bytes (%v)", n, end.Off-start.Off, err)
	}

	check := func(t *testing.T, mutate func([]byte) []byte, want *Database, wantDict int) {
		t.Helper()
		dir := t.TempDir()
		ents, err := os.ReadDir(srcDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == seg {
				b = mutate(b)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		re, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer re.Close()
		if diffs := DiffDatabases(want, re.Snapshot()); diffs != nil {
			t.Fatalf("recovered state differs: %v", diffs)
		}
		if got := re.eng.Dict().Len(); got != wantDict {
			t.Fatalf("recovered %d bindings, want %d", got, wantDict)
		}
		if rec := re.Recovery(); rec.Skipped != 0 {
			t.Fatalf("recovery skipped records: %+v", rec)
		}
	}

	check(t, func(b []byte) []byte { return b }, full, ds.eng.Dict().Len())
	for cut := start.Off; cut < end.Off; cut++ {
		check(t, func(b []byte) []byte { return b[:cut] }, pre, preDict)
	}
	for off := start.Off; off < end.Off; off++ {
		check(t, func(b []byte) []byte { b[off] ^= 0xff; return b }, pre, preDict)
	}
}

// TestDurableConcurrentInternsRecover: writers interning fresh names into
// different relations at once must leave a log whose bindings recover
// exactly — every value id included, no record skipped — because bindings
// ride in the records in watermark order.
func TestDurableConcurrentInternsRecover(t *testing.T) {
	dir := t.TempDir()
	sch := starSchema(t, 4, 2)
	ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 150
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(d int) {
			for i := 0; i < each; i++ {
				row := map[string]string{
					fmt.Sprintf("K%d", d):   fmt.Sprintf("w%d-k%d", d, i),
					fmt.Sprintf("D%d_1", d): fmt.Sprintf("w%d-a%d", d, i),
					fmt.Sprintf("D%d_2", d): fmt.Sprintf("w%d-b%d", d, i%7),
				}
				if err := ds.Insert(fmt.Sprintf("DIM%d", d), row); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w + 1)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.Skipped != 0 || rec.Records != workers*each {
		t.Fatalf("recovery %+v, want %d records and none skipped", rec, workers*each)
	}
	if diffs := DiffDatabases(ds.Snapshot(), re.Snapshot()); diffs != nil {
		t.Fatalf("recovered state differs: %v", diffs)
	}
	if got, want := re.eng.Dict().Len(), ds.eng.Dict().Len(); got != want {
		t.Fatalf("recovered %d bindings, want %d", got, want)
	}
}

// legacyFrame appends a CRC frame around a hand-encoded record payload of
// the per-operation kinds logs held before the commit record: 1 binds a
// value, 2 inserts one tuple, 3 deletes one, 4 inserts several.
func legacyFrame(buf []byte, kind byte, bind *wal.Binding, ops ...engine.Op) []byte {
	p := []byte{kind}
	if bind != nil {
		p = binary.AppendVarint(p, int64(bind.Value))
		p = binary.AppendUvarint(p, uint64(len(bind.Name)))
		p = append(p, bind.Name...)
	}
	if kind == 4 {
		p = binary.AppendUvarint(p, uint64(len(ops)))
	}
	for _, op := range ops {
		p = binary.AppendUvarint(p, uint64(op.Scheme))
		p = binary.AppendUvarint(p, uint64(len(op.Tuple)))
		for _, v := range op.Tuple {
			p = binary.AppendVarint(p, int64(v))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	return append(buf, p...)
}

// TestDurableRecoversLegacyLog keeps data directories from before the
// commit record working: a segment of the per-operation frames that log
// wrote — bindings ahead of the commit that first uses them, one insert or
// batch frame per commit's inserts, one frame per delete — recovers the
// state its writes produced, value ids included, and the store then appends
// commit records after it.
func TestDurableRecoversLegacyLog(t *testing.T) {
	sch := MustParse("CT(C,T); CS(C,S)", "C -> T")
	src, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	seg := append([]byte("INDEPWAL"), 1, 0, 0, 0, 0, 0, 0, 0)
	frames := 0
	var marks engine.Marks
	src.eng.SetCommitHook(func(c engine.Commit) func() error {
		for _, b := range src.eng.Dict().AppendNew(&marks, nil) {
			seg = legacyFrame(seg, 1, &b)
			frames++
		}
		n := 0
		for n < len(c.Ops) && !c.Ops[n].Delete {
			n++
		}
		switch {
		case n == 1:
			seg = legacyFrame(seg, 2, nil, c.Ops[0])
			frames++
		case n > 1:
			seg = legacyFrame(seg, 4, nil, c.Ops[:n]...)
			frames++
		}
		for _, op := range c.Ops[n:] {
			seg = legacyFrame(seg, 3, nil, op)
			frames++
		}
		return nil
	})
	ct := func(c, t string) map[string]string { return map[string]string{"C": c, "T": t} }
	cs := func(c, s string) map[string]string { return map[string]string{"C": c, "S": s} }
	if err := src.Insert("CT", ct("c1", "t1")); err != nil {
		t.Fatal(err)
	}
	if err := src.InsertBatch([]BatchOp{{"CT", ct("c2", "t2")}, {"CS", cs("c1", "s1")}, {"CS", cs("c2", "s2")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Delete("CT", ct("c1", "t1")); err != nil {
		t.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for _, err := range []error{
		enc.Add("CT", ct("c1", "t3")), enc.Add("CS", cs("c3", "s3")),
		enc.Delete("CS", cs("c1", "s1")), enc.Delete("CT", ct("c2", "t2")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.ApplyBinBatch(context.Background(), enc.Bytes()); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, wal.SegmentFile(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rec := re.Recovery(); rec.Records != frames || rec.Skipped != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery %+v, want %d records and nothing skipped or truncated", rec, frames)
	}
	if diffs := DiffDatabases(src.Snapshot(), re.Snapshot()); diffs != nil {
		t.Fatalf("legacy log recovered a different state: %v", diffs)
	}
	if got, want := re.eng.Dict().Len(), src.eng.Dict().Len(); got != want {
		t.Fatalf("recovered %d bindings, want %d", got, want)
	}

	// New commits land in a segment of commit records after the legacy one.
	for _, st := range []*ConcurrentStore{src, re.ConcurrentStore} {
		if err := st.Insert("CT", ct("c4", "t4")); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer again.Close()
	if diffs := DiffDatabases(src.Snapshot(), again.Snapshot()); diffs != nil {
		t.Fatalf("mixed-format log recovered a different state: %v", diffs)
	}
}

// TestDurableRecoverySkipsContradictingRecords pins what recovery does with
// a record the store cannot take: a binding that renames a bound value, an
// op on a relation the schema lacks, or a commit the guards reject. Each is
// counted in Skipped, applies nothing, and replay goes on past it.
func TestDurableRecoverySkipsContradictingRecords(t *testing.T) {
	sch := MustParse("CT(C,T); CS(C,S)", "C -> T")
	src, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	seg := append([]byte("INDEPWAL"), 1, 0, 0, 0, 0, 0, 0, 0)
	var marks engine.Marks
	src.eng.SetCommitHook(func(c engine.Commit) func() error {
		rec := wal.Record{Interns: src.eng.Dict().AppendNew(&marks, nil)}
		for _, op := range c.Ops {
			rec.Ops = append(rec.Ops, wal.TupleOp{Rel: op.Scheme, Tuple: op.Tuple, Delete: op.Delete})
		}
		seg = wal.AppendRecordFrame(seg, rec)
		return nil
	})
	if err := src.Insert("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	c1, _ := src.eng.Dict().Lookup("c1")
	t1, _ := src.eng.Dict().Lookup("t1")
	for _, rec := range []wal.Record{
		{Interns: []wal.Binding{{Value: c1, Name: "renamed"}}},
		{Ops: []wal.TupleOp{{Rel: 7, Tuple: relation.Tuple{c1, t1}}}},
		{Ops: []wal.TupleOp{{Rel: 0, Tuple: relation.Tuple{c1, c1}}}}, // C -> T rejects it
	} {
		seg = wal.AppendRecordFrame(seg, rec)
	}
	if err := src.Insert("CS", map[string]string{"C": "c1", "S": "s1"}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, wal.SegmentFile(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.Records != 5 || rec.Skipped != 3 {
		t.Fatalf("recovery %+v, want 5 records and 3 skipped", rec)
	}
	if diffs := DiffDatabases(src.Snapshot(), re.Snapshot()); diffs != nil {
		t.Fatalf("recovered a different state: %v", diffs)
	}
	if got := re.eng.Dict().Name(c1); got != "c1" {
		t.Fatalf("value %d recovered as %q, want c1", c1, got)
	}
}

// TestDurableTornTailEveryOffset is the crash-recovery property test: for
// EVERY byte offset inside the tail record, both truncating the log there
// and corrupting that byte must recover cleanly to the state without the
// tail record.
func TestDurableTornTailEveryOffset(t *testing.T) {
	srcDir := t.TempDir()
	sch := starSchema(t, 2, 2)
	ds, err := sch.OpenDurableStore(srcDir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.InsertBatch(starBatch(sch, 2, 60)); err != nil {
		t.Fatal(err)
	}
	// Expected prefix state: everything except the tail insert below. The
	// tail record interns no new values beyond its own, so losing it
	// restores exactly this state.
	wantPrefix := ds.Snapshot().String()
	// The tail record: a single insert, so its loss is easy to predict.
	if err := ds.Insert("DIM1", map[string]string{"K1": "tail", "D1_1": "t1", "D1_2": "t2"}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	wantFull := ds.Snapshot().String()

	// Locate the tail record's frame in the last segment.
	segs, err := filepath.Glob(filepath.Join(srcDir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	tailStart := tailFrameOffset(t, data)
	if tailStart <= 0 || tailStart >= len(data) {
		t.Fatalf("bad tail offset %d of %d", tailStart, len(data))
	}

	clone := func(t *testing.T, mutate func(path string)) string {
		t.Helper()
		dir := t.TempDir()
		ents, err := os.ReadDir(srcDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		mutate(filepath.Join(dir, filepath.Base(last)))
		return dir
	}

	check := func(t *testing.T, dir, want string, wantTruncated bool) {
		t.Helper()
		re, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer re.Close()
		if got := re.Snapshot().String(); got != want {
			t.Fatalf("recovered wrong state:\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
		if rec := re.Recovery(); wantTruncated && rec.TruncatedBytes == 0 {
			t.Fatalf("expected tail truncation, stats %+v", rec)
		}
		assertLocallyConsistent(t, sch, re)
	}

	// Sanity: an unmutated clone recovers the full state.
	check(t, clone(t, func(string) {}), wantFull, false)

	for cut := tailStart; cut < len(data); cut++ {
		dir := clone(t, func(path string) {
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}
		})
		check(t, dir, wantPrefix, cut > tailStart)
	}
	for off := tailStart; off < len(data); off++ {
		dir := clone(t, func(path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[off] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		check(t, dir, wantPrefix, true)
	}
}

// tailFrameOffset walks a segment's frames and returns the offset of the
// last one.
func tailFrameOffset(t *testing.T, data []byte) int {
	t.Helper()
	const segHeader, frameHeader = 16, 8
	off := segHeader
	lastStart := -1
	for off < len(data) {
		if off+frameHeader > len(data) {
			t.Fatalf("segment ends mid-header at %d", off)
		}
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		lastStart = off
		off += frameHeader + n
	}
	if off != len(data) {
		t.Fatalf("segment frames end at %d of %d", off, len(data))
	}
	return lastStart
}

// TestDurableChasePath runs the durable store over a NON-independent
// schema: records replay through the serialized chase maintainer instead
// of the guards.
func TestDurableChasePath(t *testing.T) {
	dir := t.TempDir()
	sch := MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D")
	ds, err := sch.OpenDurableStore(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.FastPath() {
		t.Fatal("Example 1 must not take the fast path")
	}
	if err := ds.Insert("CD", map[string]string{"C": "CS402", "D": "CS"}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Insert("CT", map[string]string{"C": "CS402", "T": "Jones"}); err != nil {
		t.Fatal(err)
	}
	// The paper's anomaly: locally fine, globally contradictory.
	if err := ds.Insert("TD", map[string]string{"T": "Jones", "D": "EE"}); !Rejected(err) {
		t.Fatalf("anomalous insert must be rejected, got %v", err)
	}
	want := ds.Snapshot().String()
	ds.unlock() // simulate process death; see TestKillRestartStarWorkload

	re, err := sch.OpenDurableStore(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if got := re.Snapshot().String(); got != want {
		t.Fatalf("chase-path recovery differs:\n%s\nvs\n%s", got, want)
	}
	if re.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", re.Rows())
	}
}

// TestDurableConcurrentStress drives concurrent writers against the
// durable store (fsync off to keep the race build quick) and verifies the
// recovered state matches exactly.
func TestDurableConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	sch := starSchema(t, 4, 2)
	ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 6, 120
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				d := 1 + r.Intn(4)
				seed := w*each + i
				row := map[string]string{
					fmt.Sprintf("K%d", d):   fmt.Sprintf("k%d-%d", d, seed),
					fmt.Sprintf("D%d_1", d): fmt.Sprintf("a%d", seed),
					fmt.Sprintf("D%d_2", d): fmt.Sprintf("b%d", seed),
				}
				if err := ds.Insert(fmt.Sprintf("DIM%d", d), row); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	wantRows := ds.Rows()

	re, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if re.Rows() != wantRows {
		t.Fatalf("recovered %d rows, want %d", re.Rows(), wantRows)
	}
	if rec := re.Recovery(); rec.Skipped != 0 {
		t.Fatalf("skipped records on clean log: %+v", rec)
	}
	assertLocallyConsistent(t, sch, re)
	// Set equality (order across relations may differ under concurrency):
	// every live tuple is present in the recovered store.
	live := ds.Snapshot()
	recd := re.Snapshot()
	for _, rel := range sch.Relations() {
		lt, err := live.Tuples(rel)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := recd.Tuples(rel)
		if err != nil {
			t.Fatal(err)
		}
		if len(lt) != len(rt) {
			t.Fatalf("%s: %d vs %d tuples", rel, len(lt), len(rt))
		}
		seen := make(map[string]bool, len(rt))
		for _, row := range rt {
			seen[fmt.Sprint(row)] = true
		}
		for _, row := range lt {
			if !seen[fmt.Sprint(row)] {
				t.Fatalf("%s: tuple %v lost in recovery", rel, row)
			}
		}
	}
}

// TestDurableWriteAfterClose verifies the log failure surfaces to callers.
func TestDurableWriteAfterClose(t *testing.T) {
	dir := t.TempDir()
	sch := starSchema(t, 2, 1)
	ds, err := sch.OpenDurableStore(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	err = ds.Insert("DIM1", map[string]string{"K1": "x", "D1_1": "y"})
	if err == nil {
		t.Fatal("insert after Close must fail")
	}
	if !DurabilityFailed(err) {
		t.Fatalf("want a durability failure, got %v", err)
	}
	if Rejected(err) {
		t.Fatalf("durability failure must not read as a constraint rejection: %v", err)
	}
}

// TestWALDepthVisible checks the stats plumbing the daemon exposes.
func TestWALDepthVisible(t *testing.T) {
	dir := t.TempDir()
	sch := starSchema(t, 2, 1)
	ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.InsertBatch(starBatch(sch, 2, 90)); err != nil {
		t.Fatal(err)
	}
	st := ds.WAL()
	if st.Records == 0 || st.TotalBytes == 0 || st.Segments == 0 {
		t.Fatalf("WAL stats empty: %+v", st)
	}
}

// TestDurableDirLock verifies two live stores cannot share a directory.
func TestDurableDirLock(t *testing.T) {
	dir := t.TempDir()
	sch := starSchema(t, 2, 1)
	ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true}); err == nil {
		t.Fatal("second open of a live directory must fail")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	re.Close()
}
