package indep

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"indep/internal/engine"
	"indep/internal/relation"
	"indep/internal/wal"
)

// binTestSchema is the paper's running example: independent, three schemes,
// shared attributes across relations so interned values are reused.
func binTestSchema(t testing.TB) *Schema {
	t.Helper()
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// binTestOps builds n valid rows cycling over the schema's relations, with
// value reuse (every FD holds by construction: each value is a function of
// its attribute and seed).
func binTestOps(n int) []BatchOp {
	rels := [][2]any{
		{"CT", []string{"C", "T"}},
		{"CS", []string{"C", "S"}},
		{"CHR", []string{"C", "H", "R"}},
	}
	ops := make([]BatchOp, n)
	for i := range ops {
		rel := rels[i%len(rels)]
		attrs := rel[1].([]string)
		row := make(map[string]string, len(attrs))
		for _, a := range attrs {
			row[a] = fmt.Sprintf("%s%d", a, i/len(rels)%7)
		}
		ops[i] = BatchOp{Rel: rel[0].(string), Row: row}
	}
	return ops
}

// TestBinBatchRoundTrip pins the wire contract: a 64-op encoder payload
// applied through ApplyBinBatch yields exactly the state the JSON path's
// InsertBatch yields for the same rows.
func TestBinBatchRoundTrip(t *testing.T) {
	sch := binTestSchema(t)
	ops := binTestOps(64)

	want, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := want.InsertBatch(ops); err != nil {
		t.Fatal(err)
	}

	enc := NewBinBatchEncoder(sch)
	for _, op := range ops {
		if err := enc.Add(op.Rel, op.Row); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Len() != 64 {
		t.Fatalf("encoder holds %d ops, want 64", enc.Len())
	}
	got, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	n, err := got.ApplyBinBatch(context.Background(), enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Fatalf("ApplyBinBatch admitted %d rows, want 64", n)
	}
	if diffs := DiffDatabases(want.Snapshot(), got.Snapshot()); diffs != nil {
		t.Fatalf("binary batch diverged from JSON path: %v", diffs)
	}

	// Reset must yield a self-contained next payload (bindings re-emitted).
	enc.Reset()
	if enc.Len() != 0 {
		t.Fatalf("Len after Reset = %d", enc.Len())
	}
	if err := enc.Add("CT", map[string]string{"C": "C0", "T": "T0"}); err != nil {
		t.Fatal(err)
	}
	fresh, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fresh.ApplyBinBatch(context.Background(), enc.Bytes()); err != nil || n != 1 {
		t.Fatalf("post-Reset payload: n=%d err=%v", n, err)
	}
}

// TestBinBatchAtomicReject: an FD-violating binary batch is rejected as a
// whole and leaves the state unchanged.
func TestBinBatchAtomicReject(t *testing.T) {
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for _, row := range []map[string]string{
		{"C": "cs101", "T": "jones"},
		{"C": "cs101", "T": "smith"}, // violates C -> T
	} {
		if err := enc.Add("CT", row); err != nil {
			t.Fatal(err)
		}
	}
	n, err := cs.ApplyBinBatch(context.Background(), enc.Bytes())
	if !Rejected(err) {
		t.Fatalf("want rejection, got n=%d err=%v", n, err)
	}
	if cs.Rows() != 0 {
		t.Fatalf("rejected batch left %d rows", cs.Rows())
	}
}

// TestBinBatchMalformed: structurally bad payloads are errors (never
// rejections, never panics) and leave the state unchanged.
func TestBinBatchMalformed(t *testing.T) {
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	if err := enc.Add("CT", map[string]string{"C": "c", "T": "t"}); err != nil {
		t.Fatal(err)
	}
	valid := enc.Bytes()
	cases := map[string][]byte{
		"truncated":   valid[:len(valid)-3],
		"corrupted":   append(append([]byte(nil), valid[:len(valid)-1]...), valid[len(valid)-1]^0xff),
		"empty frame": {0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, payload := range cases {
		n, err := cs.ApplyBinBatch(context.Background(), payload)
		if err == nil || Rejected(err) {
			t.Errorf("%s: want malformed error, got n=%d err=%v", name, n, err)
		}
	}
	if cs.Rows() != 0 {
		t.Fatalf("malformed payloads left %d rows", cs.Rows())
	}
}

// TestWindowBinaryRoundTrip: the binary window result decodes to exactly the
// JSON-shaped result, across projection, selection, and limit.
func TestWindowBinaryRoundTrip(t *testing.T) {
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertBatch(binTestOps(60)); err != nil {
		t.Fatal(err)
	}
	queries := []WindowQuery{
		{Attrs: []string{"C", "T"}},
		{Attrs: []string{"C", "T", "S"}, Limit: 3},
		{Attrs: []string{"C", "T"}, Where: map[string]string{"C": "C1"}},
		{Attrs: []string{"C", "T"}, Project: []string{"T"}},
		{Attrs: []string{"C"}, Where: map[string]string{"C": "never-seen"}},
	}
	for _, q := range queries {
		want, err := cs.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		q.BinaryResult = true
		res, err := cs.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != nil || len(res.Bin) == 0 {
			t.Fatalf("binary result: Rows=%v len(Bin)=%d", res.Rows, len(res.Bin))
		}
		got, err := DecodeWindowBinary(res.Bin)
		if err != nil {
			t.Fatalf("decode %v: %v", q.Attrs, err)
		}
		// PlanCached is excluded: the second run of the same attrs hits the
		// plan cache by design, so the two results legitimately differ there.
		if !reflect.DeepEqual(got.Attrs, want.Attrs) || got.Total != want.Total ||
			got.FastPath != want.FastPath {
			t.Fatalf("header mismatch: got %+v want %+v", got, want)
		}
		wrows := want.Rows
		grows := got.Rows
		if len(wrows) != len(grows) {
			t.Fatalf("row count %d vs %d", len(grows), len(wrows))
		}
		for i := range wrows {
			if !reflect.DeepEqual(grows[i], wrows[i]) {
				t.Fatalf("row %d: got %v want %v", i, grows[i], wrows[i])
			}
		}
	}
}

// legacyBinBatch is a binary batch for "CT(C,T); CS(C,S); CHR(C,H,R)" in
// the per-operation frames clients sent before the commit record: one
// frame per binding, a batch frame of inserts, then one frame per delete.
func legacyBinBatch() []byte {
	var buf []byte
	for i, name := range []string{"c1", "t1", "s1", "c2", "t2"} {
		buf = legacyFrame(buf, 1, &wal.Binding{Value: relation.Value(i + 1), Name: name})
	}
	buf = legacyFrame(buf, 4, nil,
		engine.Op{Scheme: 0, Tuple: relation.Tuple{1, 2}},
		engine.Op{Scheme: 1, Tuple: relation.Tuple{1, 3}})
	buf = legacyFrame(buf, 2, nil, engine.Op{Scheme: 0, Tuple: relation.Tuple{4, 5}})
	return legacyFrame(buf, 3, nil, engine.Op{Scheme: 1, Tuple: relation.Tuple{4, 3}})
}

// TestBinBatchLegacyFrames: a payload in the per-operation frames older
// clients send decodes as the same operations the commit record carries.
func TestBinBatchLegacyFrames(t *testing.T) {
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sch.DecodeBinBatch(legacyBinBatch())
	if err != nil {
		t.Fatal(err)
	}
	want := []BinOp{
		{Rel: "CT", Row: map[string]string{"C": "c1", "T": "t1"}},
		{Rel: "CS", Row: map[string]string{"C": "c1", "S": "s1"}},
		{Rel: "CT", Row: map[string]string{"C": "c2", "T": "t2"}},
		{Rel: "CS", Delete: true, Row: map[string]string{"C": "c2", "S": "s1"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy payload decoded as %+v, want %+v", got, want)
	}
	enc := NewBinBatchEncoder(sch)
	for _, op := range want {
		if op.Delete {
			err = enc.Delete(op.Rel, op.Row)
		} else {
			err = enc.Add(op.Rel, op.Row)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if again, err := sch.DecodeBinBatch(enc.Bytes()); err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("commit-record payload decoded as %+v, %v; want %+v", again, err, want)
	}
}

// FuzzDecodeBinaryBatch: arbitrary bytes through the full binary ingest path
// must error or apply cleanly — never panic, never corrupt the store into a
// state its own invariants reject.
func FuzzDecodeBinaryBatch(f *testing.F) {
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		f.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for _, op := range binTestOps(8) {
		if err := enc.Add(op.Rel, op.Row); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Delete("CT", map[string]string{"C": "C0", "T": "T0"}); err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Bytes())
	f.Add(legacyBinBatch())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		cs.ApplyBinBatch(context.Background(), payload)
	})
}

// FuzzDecodeWindowBinary: the result decoder must reject arbitrary bytes
// without panicking, and round-trip every valid encoding.
func FuzzDecodeWindowBinary(f *testing.F) {
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		f.Fatal(err)
	}
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		f.Fatal(err)
	}
	if err := cs.InsertBatch(binTestOps(12)); err != nil {
		f.Fatal(err)
	}
	res, err := cs.Query(WindowQuery{Attrs: []string{"C", "T"}, BinaryResult: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(res.Bin)
	f.Add([]byte("IWIN1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeWindowBinary(data)
	})
}

// TestBinBatchRandomEquivalence drives random payloads — inserts and
// deletes over small value domains, so FD violations and deletes of present
// rows both occur — through ApplyBinBatch on an independent schema and on a
// chase-path one, and requires the state a second store reaches when fed the
// same ops one at a time, inserts first, a violation undoing the inserts
// before it and skipping the deletes: the payload's atomic
// inserts-then-deletes contract, spelled out in single operations.
func TestBinBatchRandomEquivalence(t *testing.T) {
	schemas := map[string]*Schema{
		"independent": binTestSchema(t),
		"chase":       MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D"),
	}
	for name, sch := range schemas {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			oracle, err := sch.OpenConcurrentStore()
			if err != nil {
				t.Fatal(err)
			}
			binStore, err := sch.OpenConcurrentStore()
			if err != nil {
				t.Fatal(err)
			}
			if binStore.FastPath() != (name == "independent") {
				t.Fatalf("FastPath = %v on the %s schema", binStore.FastPath(), name)
			}
			rels := sch.Relations()
			randomOp := func() BatchOp {
				rel := rels[rng.Intn(len(rels))]
				attrs, _ := sch.RelationAttrs(rel)
				row := make(map[string]string, len(attrs))
				for _, a := range attrs {
					row[a] = fmt.Sprintf("%s%d", a, rng.Intn(4))
				}
				return BatchOp{Rel: rel, Row: row}
			}
			enc := NewBinBatchEncoder(sch)
			rejected := 0
			for round := 0; round < 200; round++ {
				enc.Reset()
				var ins, dels []BatchOp
				for i, n := 0, 1+rng.Intn(6); i < n; i++ {
					if op := randomOp(); rng.Intn(3) == 0 {
						dels = append(dels, op)
						err = enc.Delete(op.Rel, op.Row)
					} else {
						ins = append(ins, op)
						err = enc.Add(op.Rel, op.Row)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				oerr := applyOneAtATime(oracle, ins, dels)
				_, berr := binStore.ApplyBinBatch(context.Background(), enc.Bytes())
				if Rejected(oerr) != Rejected(berr) || (oerr == nil) != (berr == nil) {
					t.Fatalf("round %d: one at a time err=%v, payload err=%v", round, oerr, berr)
				}
				if berr != nil {
					rejected++
				}
				if diffs := DiffDatabasesByName(oracle.Snapshot(), binStore.Snapshot()); diffs != nil {
					t.Fatalf("round %d diverged: %v", round, diffs)
				}
			}
			if rejected == 0 || rejected == 200 || binStore.Rows() == 0 {
				t.Fatalf("degenerate run: %d of 200 payloads rejected, %d rows", rejected, binStore.Rows())
			}
		})
	}
}

// applyOneAtATime is the single-operation oracle for one payload: the
// inserts in order, undone again if one is rejected, and only then the
// deletes.
func applyOneAtATime(cs *ConcurrentStore, ins, dels []BatchOp) error {
	var added []BatchOp
	for _, op := range ins {
		before := cs.Rows()
		if err := cs.Insert(op.Rel, op.Row); err != nil {
			for _, a := range added {
				cs.Delete(a.Rel, a.Row)
			}
			return err
		}
		if cs.Rows() > before {
			added = append(added, op)
		}
	}
	for _, op := range dels {
		if _, err := cs.Delete(op.Rel, op.Row); err != nil {
			return err
		}
	}
	return nil
}

// TestApplyBinBatchPartialReport pins the shard-side partial contract: a
// payload with violations applies everything else, reports each rejection
// under its frame index, and re-applying the same payload is a fixpoint —
// the idempotence the cluster router's retries lean on.
func TestApplyBinBatchPartialReport(t *testing.T) {
	sch := binTestSchema(t)
	enc := NewBinBatchEncoder(sch)
	add := func(rel string, row map[string]string) {
		t.Helper()
		if err := enc.Add(rel, row); err != nil {
			t.Fatal(err)
		}
	}
	add("CT", map[string]string{"C": "c1", "T": "t1"})                                // 0: applied
	add("CT", map[string]string{"C": "c1", "T": "t2"})                                // 1: rejected (C -> T)
	add("CS", map[string]string{"C": "c1", "S": "s1"})                                // 2: applied
	add("CT", map[string]string{"C": "c1", "T": "t3"})                                // 3: rejected
	add("CS", map[string]string{"C": "c2", "S": "s2"})                                // 4: applied
	if err := enc.Delete("CS", map[string]string{"C": "c2", "S": "s2"}); err != nil { // 5: applied
		t.Fatal(err)
	}
	payload := enc.Bytes()

	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	// The atomic path voids the whole batch on the first violation...
	if _, err := cs.ApplyBinBatch(context.Background(), payload); !Rejected(err) {
		t.Fatalf("atomic apply: got %v, want a rejection", err)
	}
	if cs.Rows() != 0 {
		t.Fatalf("atomic apply left %d rows behind after rejection", cs.Rows())
	}
	// ...the partial path applies around it and reports.
	for attempt := 0; attempt < 2; attempt++ {
		rep, err := cs.ApplyBinBatchPartial(context.Background(), payload)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if rep.Ops != 6 || rep.Processed != 6 || rep.Applied != 4 {
			t.Fatalf("attempt %d: report %+v, want 6/6/4", attempt, rep)
		}
		if len(rep.Rejected) != 2 || rep.Rejected[0].Index != 1 || rep.Rejected[1].Index != 3 {
			t.Fatalf("attempt %d: rejected %+v, want indices 1 and 3", attempt, rep.Rejected)
		}
		for _, o := range rep.Rejected {
			if o.Code != "rejected" || o.Error == "" {
				t.Fatalf("attempt %d: outcome %+v", attempt, o)
			}
		}
	}
	if cs.Rows() != 2 { // CT(c1,t1) and CS(c1,s1); CS(c2,s2) was deleted
		t.Fatalf("store holds %d rows, want 2", cs.Rows())
	}
}

// TestApplyBinBatchPartialMalformed pins decode-before-apply: a payload
// that fails validation applies nothing, even if a prefix was well-formed.
func TestApplyBinBatchPartialMalformed(t *testing.T) {
	sch := binTestSchema(t)
	enc := NewBinBatchEncoder(sch)
	if err := enc.Add("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	payload := enc.Bytes()
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.ApplyBinBatchPartial(context.Background(), append(payload, "trailing junk"...)); err == nil {
		t.Fatal("partial apply accepted a malformed payload")
	}
	if cs.Rows() != 0 {
		t.Fatalf("malformed payload applied %d rows", cs.Rows())
	}
}

// stablePartition reorders decoded ops the way the encoder lays them out:
// all inserts in order, then all deletes in order.
func stablePartition(ops []BinOp) []BinOp {
	var out []BinOp
	for _, op := range ops {
		if !op.Delete {
			out = append(out, op)
		}
	}
	for _, op := range ops {
		if op.Delete {
			out = append(out, op)
		}
	}
	return out
}

// FuzzDecodeShardBatch fuzzes the router-side decoder the cluster splits
// payloads with: arbitrary bytes must error or decode cleanly, and any
// successful decode must survive a re-encode round trip (modulo the
// inserts-before-deletes normalization the encoder applies).
func FuzzDecodeShardBatch(f *testing.F) {
	sch, err := Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		f.Fatal(err)
	}
	enc := NewBinBatchEncoder(sch)
	for _, op := range binTestOps(6) {
		if err := enc.Add(op.Rel, op.Row); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Delete("CT", map[string]string{"C": "C0", "T": "T0"}); err != nil {
		f.Fatal(err)
	}
	valid := enc.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(legacyBinBatch())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		ops, err := sch.DecodeBinBatch(payload)
		if err != nil {
			return
		}
		re := NewBinBatchEncoder(sch)
		for _, op := range ops {
			if op.Delete {
				err = re.Delete(op.Rel, op.Row)
			} else {
				err = re.Add(op.Rel, op.Row)
			}
			if err != nil {
				t.Fatalf("decoded op %+v does not re-encode: %v", op, err)
			}
		}
		if re.Len() != len(ops) {
			t.Fatalf("re-encoder holds %d ops, decoded %d", re.Len(), len(ops))
		}
		again, err := sch.DecodeBinBatch(re.Bytes())
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, stablePartition(ops)) {
			t.Fatalf("round trip changed ops:\n got %+v\nwant %+v", again, stablePartition(ops))
		}
	})
}
