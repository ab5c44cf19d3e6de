package indep

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

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

// splitBinBatch re-frames an encoder's record in the shape
// wal.AppendRecordFrame gives a record whose bindings outgrow one frame: a
// frame of the leading bindings alone, then one of the rest with the ops.
func splitBinBatch(enc *BinBatchEncoder) []byte {
	k := len(enc.rec.Interns) / 2
	buf := wal.AppendRecordFrame(nil, wal.Record{Interns: enc.rec.Interns[:k]})
	return wal.AppendRecordFrame(buf, wal.Record{Interns: enc.rec.Interns[k:], Ops: enc.rec.Ops})
}

// hostileRecord inserts CT(c,t), CS(c,s) and CHR(c,h,r) — hostileRows —
// binding c, t, s, h and r to the client ids given, in that order.
func hostileRecord(c, t, s, h, r relation.Value) wal.Record {
	return wal.Record{
		Interns: []wal.Binding{{Value: c, Name: "c"}, {Value: t, Name: "t"}, {Value: s, Name: "s"},
			{Value: h, Name: "h"}, {Value: r, Name: "r"}},
		Ops: []wal.TupleOp{{Rel: 0, Tuple: relation.Tuple{c, t}}, {Rel: 1, Tuple: relation.Tuple{c, s}},
			{Rel: 2, Tuple: relation.Tuple{c, h, r}}},
	}
}

var hostileRows = []BatchOp{
	{Rel: "CT", Row: map[string]string{"C": "c", "T": "t"}},
	{Rel: "CS", Row: map[string]string{"C": "c", "S": "s"}},
	{Rel: "CHR", Row: map[string]string{"C": "c", "H": "h", "R": "r"}},
}

// acrossGrowth returns a payload whose id 9, bound to c in frame 1, is
// outside the decoder's dense id table then (it spans [0, 2·bindings
// declared], here [0, 2]), and is used by frame 2's ops after frame 2's
// bindings have grown the table past 9. A non-nil rebind is a last frame rebinding id 9.
func acrossGrowth(rebind *wal.Binding) []byte {
	buf := wal.AppendRecordFrame(nil, wal.Record{Interns: []wal.Binding{{Value: 9, Name: "c"}}})
	rec := hostileRecord(9, 1, 2, 3, 4)
	rec.Interns = rec.Interns[1:]
	for _, v := range []relation.Value{5, 6, 7, 8, 10} {
		rec.Interns = append(rec.Interns, wal.Binding{Value: v, Name: fmt.Sprint("filler", v)})
	}
	buf = wal.AppendRecordFrame(buf, rec)
	if rebind != nil {
		buf = wal.AppendRecordFrame(buf, wal.Record{Interns: []wal.Binding{*rebind}})
	}
	return buf
}

// hostileIDPayloads are well-formed payloads inserting hostileRows under
// client ids a BinBatchEncoder never picks, in a fixed order.
func hostileIDPayloads() []struct {
	name    string
	payload []byte
} {
	return []struct {
		name    string
		payload []byte
	}{
		{"ids 0, -5 and 2^40", wal.AppendRecordFrame(nil, hostileRecord(0, -5, 1<<40, 1, 2))},
		{"sparse ids", wal.AppendRecordFrame(nil, hostileRecord(1000, 3_000_000, 77, 1<<20, 9999))},
		{"bound outside the dense table, used after it grew", acrossGrowth(nil)},
		{"rebound to its name after the dense table grew", acrossGrowth(&wal.Binding{Value: 9, Name: "c"})},
	}
}

// retiredFrame is a CRC-valid frame of the retired per-operation record
// kind 2, one insert of CT(1, 2), which the decoder refuses with
// wal.ErrLegacyRecord.
func retiredFrame() []byte {
	p := []byte{2, 0, 2, 2, 4}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	return append(buf, p...)
}

// TestBinBatchRoundTrip pins the wire contract: a 64-op encoder payload
// applied through ApplyBinBatch yields exactly the state the JSON path's
// InsertBatch yields for the same rows, and so does the same record split
// across two frames.
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
	split, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := split.ApplyBinBatch(context.Background(), splitBinBatch(enc)); err != nil || n != 64 {
		t.Fatalf("split payload: n=%d err=%v", n, err)
	}
	if diffs := DiffDatabases(want.Snapshot(), split.Snapshot()); diffs != nil {
		t.Fatalf("split payload diverged from JSON path: %v", diffs)
	}

	// Ids an encoder never picks decode to the same rows.
	for _, h := range hostileIDPayloads() {
		oracle, err := sch.OpenConcurrentStore()
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.InsertBatch(hostileRows); err != nil {
			t.Fatal(err)
		}
		cs, err := sch.OpenConcurrentStore()
		if err != nil {
			t.Fatal(err)
		}
		if n, err := cs.ApplyBinBatch(context.Background(), h.payload); err != nil || n != 3 {
			t.Fatalf("%s: n=%d err=%v", h.name, n, err)
		}
		if diffs := DiffDatabasesByName(oracle.Snapshot(), cs.Snapshot()); diffs != nil {
			t.Fatalf("%s diverged from JSON path: %v", h.name, diffs)
		}
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
	ct := wal.Record{
		Interns: []wal.Binding{{Value: 1, Name: "c"}, {Value: 2, Name: "t"}},
		Ops:     []wal.TupleOp{{Rel: 0, Tuple: relation.Tuple{1, 2}}},
	}
	cases := map[string]struct {
		payload []byte
		want    string // in the error; "" for any malformed error
	}{
		"truncated":   {valid[:len(valid)-3], ""},
		"corrupted":   {append(append([]byte(nil), valid[:len(valid)-1]...), valid[len(valid)-1]^0xff), ""},
		"empty frame": {[]byte{0, 0, 0, 0, 0, 0, 0, 0}, ""},
		"rebind across frames": {wal.AppendRecordFrame(wal.AppendRecordFrame(nil, ct),
			wal.Record{Interns: []wal.Binding{{Value: 1, Name: "other"}}, Ops: ct.Ops}), "rebinds id 1"},
		"unbound id": {wal.AppendRecordFrame(nil, wal.Record{Interns: ct.Interns[:1], Ops: ct.Ops}),
			"unbound value id 2"},
		"unbound id 2^40": {wal.AppendRecordFrame(nil, wal.Record{Interns: ct.Interns,
			Ops: []wal.TupleOp{{Rel: 0, Tuple: relation.Tuple{1, 1 << 40}}}}), "unbound value id 1099511627776"},
		"rebind across dense table growth": {acrossGrowth(&wal.Binding{Value: 9, Name: "other"}),
			`rebinds id 9 ("c", then "other")`},
	}
	for name, c := range cases {
		n, err := cs.ApplyBinBatch(context.Background(), c.payload)
		if err == nil || Rejected(err) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want malformed error %q, got n=%d err=%v", name, c.want, n, err)
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
	f.Add(splitBinBatch(enc))
	f.Add(retiredFrame())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	for _, h := range hostileIDPayloads() {
		f.Add(h.payload)
	}
	f.Add(acrossGrowth(&wal.Binding{Value: 9, Name: "other"}))
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, err := cs.ApplyBinBatch(context.Background(), payload)
		if pl, _, ferr := wal.NextStreamFrame(payload); ferr == nil && len(pl) > 0 && pl[0] >= 1 && pl[0] <= 4 &&
			!errors.Is(err, wal.ErrLegacyRecord) {
			t.Fatalf("payload %x opens with a retired kind-%d frame: %v, want wal.ErrLegacyRecord", payload, pl[0], err)
		}
	})
}

// rowsWithoutAttrs is a well-checksummed window result declaring no
// attributes, no bindings and 2^40 rows: nothing in the payload bounds the
// row count, so a decoder that trusts it allocates until the process dies.
func rowsWithoutAttrs() []byte {
	b := append([]byte("IWIN1"), 0, 0, 0, 0) // flags, total, nattrs, nbind
	b = binary.AppendUvarint(b, 1<<40)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// TestDecodeWindowBinaryRejectsRowsWithoutAttrs pins the row bound for the
// attribute-less case: a router decodes shard replies with this function,
// so one such reply must be an error, not an out-of-memory crash.
// TestSetPlanCached flips a binary answer's plan-cache flag both ways: the
// answer still decodes, its checksum recomputed, with the flag set and
// every other field unchanged, and Explain follows the flag.
func TestSetPlanCached(t *testing.T) {
	cs, err := binTestSchema(t).OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.InsertBatch(binTestOps(20)); err != nil {
		t.Fatal(err)
	}
	res, err := cs.Query(WindowQuery{Attrs: []string{"C", "T"}, BinaryResult: true, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeWindowBinary(res.Bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{!res.PlanCached, res.PlanCached} {
		res.SetPlanCached(cached)
		got, err := DecodeWindowBinary(res.Bin)
		if err != nil {
			t.Fatalf("cached %v: %v", cached, err)
		}
		if res.PlanCached != cached || res.Explain.PlanCached != cached || got.PlanCached != cached {
			t.Fatalf("cached %v: result %v, explain %v, decoded %v", cached, res.PlanCached, res.Explain.PlanCached, got.PlanCached)
		}
		want.PlanCached = cached
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cached %v: decoded %+v, want %+v", cached, got, want)
		}
	}
}

func TestDecodeWindowBinaryRejectsRowsWithoutAttrs(t *testing.T) {
	if _, err := DecodeWindowBinary(rowsWithoutAttrs()); err == nil {
		t.Fatal("2^40 rows of no attributes decoded without error")
	}
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
	f.Add(rowsWithoutAttrs())
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
	f.Add(splitBinBatch(enc))
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

// naiveMerge is MergeWindowAnswers spelled out over rendered rows: every
// row of both answers, sorted column by column, duplicates dropped unless
// the answers are disjoint, cut to limit.
func naiveMerge(a, b *WindowResult, limit int, disjoint bool) *WindowResult {
	cmpRows := func(x, y map[string]string) int {
		for _, attr := range a.Attrs {
			if c := strings.Compare(x[attr], y[attr]); c != 0 {
				return c
			}
		}
		return 0
	}
	res := &WindowResult{Attrs: a.Attrs, Total: a.Total + b.Total,
		FastPath: a.FastPath && b.FastPath, PlanCached: a.PlanCached && b.PlanCached}
	rows := append(slices.Clone(a.Rows), b.Rows...)
	slices.SortStableFunc(rows, cmpRows)
	if !disjoint {
		rows = slices.CompactFunc(rows, func(x, y map[string]string) bool { return cmpRows(x, y) == 0 })
		res.Total = len(rows)
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	res.Rows = rows
	return res
}

// mergeTestAnswers returns two stores' binary answers to windows over
// values with NUL-suffixed names: [C,T] and [T], so the [T] answers overlap.
func mergeTestAnswers(t testing.TB, n int) (ct, tt [2][]byte) {
	sch, err := Parse("CT(C,T)", "C -> T")
	if err != nil {
		t.Fatal(err)
	}
	tnames := []string{"t", "t\x00", "t\x001", "t1", "u"}
	for s := range 2 {
		cs, err := sch.OpenConcurrentStore()
		if err != nil {
			t.Fatal(err)
		}
		var ops []BatchOp
		for i := 0; i < n; i++ {
			c := fmt.Sprintf("c%d", 2*i+s)
			if i%5 == 0 {
				c = fmt.Sprintf("c%d\x00%d", i, s)
			}
			ops = append(ops, BatchOp{Rel: "CT", Row: map[string]string{"C": c, "T": tnames[(i+s)%len(tnames)]}})
		}
		if err := cs.InsertBatch(ops); err != nil {
			t.Fatal(err)
		}
		for i, attrs := range [][]string{{"C", "T"}, {"T"}} {
			res, err := cs.Query(WindowQuery{Attrs: attrs, BinaryResult: true})
			if err != nil {
				t.Fatal(err)
			}
			[]*[2][]byte{&ct, &tt}[i][s] = res.Bin
		}
	}
	return ct, tt
}

// FuzzMergeWindowAnswers: merging two arbitrary payloads either fails or
// yields bytes DecodeWindowBinary accepts, equal to a naive merge of the
// decoded rows.
func FuzzMergeWindowAnswers(f *testing.F) {
	ct, tt := mergeTestAnswers(f, 12)
	f.Add(ct[0], ct[1], uint8(0), true)
	f.Add(ct[0], ct[1], uint8(5), true)
	f.Add(tt[0], tt[1], uint8(0), false)
	f.Add(tt[0], tt[1], uint8(2), false)
	f.Add(ct[0], tt[1], uint8(0), false)
	f.Fuzz(func(t *testing.T, a, b []byte, limit uint8, disjoint bool) {
		pa, err := ParseWindowAnswer(a)
		if err != nil {
			return
		}
		pb, err := ParseWindowAnswer(b)
		if err != nil {
			return
		}
		res, err := MergeWindowAnswers([]*WindowAnswer{pa, pb}, int(limit), disjoint)
		if err != nil {
			return
		}
		got, err := DecodeWindowBinary(res.Bin)
		if err != nil {
			t.Fatalf("merged answer does not decode: %v", err)
		}
		da, _ := DecodeWindowBinary(a)
		db, _ := DecodeWindowBinary(b)
		want := naiveMerge(da, db, int(limit), disjoint)
		if !reflect.DeepEqual(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Rows, want.Rows) ||
			got.Total != want.Total || got.FastPath != want.FastPath || got.PlanCached != want.PlanCached {
			t.Fatalf("merge (limit %d, disjoint %v):\n got %v %q total %d flags %v %v\nwant %v %q total %d flags %v %v",
				limit, disjoint, got.Attrs, got.Rows, got.Total, got.FastPath, got.PlanCached,
				want.Attrs, want.Rows, want.Total, want.FastPath, want.PlanCached)
		}
		if res.Total != got.Total || !slices.Equal(res.Attrs, got.Attrs) {
			t.Fatalf("merge result header %v total %d, its bytes %v total %d", res.Attrs, res.Total, got.Attrs, got.Total)
		}
	})
}

// reorderedAnswer re-encodes a parsed answer with its bindings written in
// an order drawn from perm and under distinct ids drawn from seed, the way
// a node that bound values in first-appearance order under its dictionary
// ids sent answers.
func reorderedAnswer(a *WindowAnswer, perm []byte, seed uint64) []byte {
	order := make([]int, len(a.names)) // order[k] is the binding written k-th
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0 && len(perm) > 0; i-- {
		j := int(perm[0]) % (i + 1)
		order[i], order[j] = order[j], order[i]
		perm = perm[1:]
	}
	id := func(i int32) int64 { // splitmix64 is a bijection, so distinct i give distinct ids
		z := seed + uint64(i)*0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return int64(z ^ z>>31)
	}
	buf := appendWindowHeader(nil, a.attrs, a.total, a.fast, a.cached)
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, i := range order {
		buf = binary.AppendVarint(buf, id(int32(i)))
		buf = binary.AppendUvarint(buf, uint64(len(a.names[i])))
		buf = append(buf, a.names[i]...)
	}
	buf = binary.AppendUvarint(buf, uint64(a.n))
	for _, v := range a.cells {
		buf = binary.AppendVarint(buf, id(v))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, binCRC))
}

// FuzzParseWindowAnswerBindingOrder: an answer whose bindings arrive in any
// order under any distinct ids, as an older node sends them, reads as its
// canonical encoding does. ParseWindowAnswer accepts it exactly when it
// accepts the canonical bytes, DecodeWindowBinary gives the same rows, and
// merging it with a second answer gives the bytes merging the canonical
// encoding gives.
func FuzzParseWindowAnswerBindingOrder(f *testing.F) {
	ct, tt := mergeTestAnswers(f, 12)
	f.Add(ct[0], ct[1], []byte{3, 1, 4, 1, 5, 9, 2, 6}, uint64(0), uint8(0), true)
	f.Add(ct[1], ct[0], []byte{255, 0, 7}, uint64(1)<<63, uint8(5), true)
	f.Add(tt[0], tt[1], []byte{2, 7, 1, 8, 2, 8}, uint64(42), uint8(0), false)
	f.Add(tt[1], tt[0], []byte{}, uint64(7), uint8(2), false)
	f.Fuzz(func(t *testing.T, data, other, perm []byte, seed uint64, limit uint8, disjoint bool) {
		dec, err := DecodeWindowBinary(data)
		if err != nil {
			return
		}
		canon := EncodeWindowBinary(dec)
		a, err := parseWindow(canon)
		if err != nil {
			t.Fatalf("canonical encoding does not parse: %v", err)
		}
		moved := reorderedAnswer(a, perm, seed)
		got, err := DecodeWindowBinary(moved)
		if err != nil {
			t.Fatalf("reordered answer does not decode: %v", err)
		}
		if !reflect.DeepEqual(got.Rows, dec.Rows) || got.Total != dec.Total {
			t.Fatalf("reordered answer decodes to %q (total %d), want %q (total %d)", got.Rows, got.Total, dec.Rows, dec.Total)
		}
		pc, errC := ParseWindowAnswer(canon)
		pm, errM := ParseWindowAnswer(moved)
		if (errC == nil) != (errM == nil) {
			t.Fatalf("canonical answer parses with %v, reordered with %v", errC, errM)
		}
		po, err := ParseWindowAnswer(other)
		if errC != nil || err != nil {
			return
		}
		mc, errC := MergeWindowAnswers([]*WindowAnswer{pc, po}, int(limit), disjoint)
		mm, errM := MergeWindowAnswers([]*WindowAnswer{pm, po}, int(limit), disjoint)
		if (errC == nil) != (errM == nil) || errC == nil && !slices.Equal(mc.Bin, mm.Bin) {
			t.Fatalf("merging the canonical answer gives %v, the reordered one %v; bytes equal %v",
				errC, errM, errC == nil && errM == nil && slices.Equal(mc.Bin, mm.Bin))
		}
	})
}

// TestMergeWindowAnswersNamesBoundOnce: a name both answers bind is bound
// once in the merged answer, and only names its rows use are bound.
func TestMergeWindowAnswersNamesBoundOnce(t *testing.T) {
	ct, tt := mergeTestAnswers(t, 12)
	for _, tc := range []struct {
		parts    [2][]byte
		disjoint bool
		limit    int
	}{{ct, true, 0}, {ct, true, 7}, {tt, false, 0}, {tt, false, 2}} {
		var parts []*WindowAnswer
		for _, b := range tc.parts {
			p, err := ParseWindowAnswer(b)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		res, err := MergeWindowAnswers(parts, tc.limit, tc.disjoint)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := ParseWindowAnswer(res.Bin)
		if err != nil {
			t.Fatal(err)
		}
		used := make(map[string]bool)
		for _, v := range merged.cells {
			used[merged.names[v]] = true
		}
		if len(merged.names) != len(used) {
			t.Fatalf("%v (limit %d): rows use %d names, bindings hold %q", res.Attrs, tc.limit, len(used), merged.names)
		}
	}
}

// TestMergeWindowAnswersAllocsFlat pins the merge's allocation count:
// parsing two owners' answers and merging them allocates as often at 500
// rows per owner as at 50 — no map or string per row or per name.
func TestMergeWindowAnswersAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	var counts []float64
	for _, n := range []int{50, 500} {
		ct, tt := mergeTestAnswers(t, n)
		for _, tc := range []struct {
			parts    [2][]byte
			disjoint bool
		}{{ct, true}, {tt, false}} {
			counts = append(counts, testing.AllocsPerRun(20, func() {
				pa, err := ParseWindowAnswer(tc.parts[0])
				if err != nil {
					t.Fatal(err)
				}
				pb, err := ParseWindowAnswer(tc.parts[1])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := MergeWindowAnswers([]*WindowAnswer{pa, pb}, 0, tc.disjoint); err != nil {
					t.Fatal(err)
				}
			}))
		}
	}
	if counts[0] != counts[2] || counts[1] != counts[3] {
		t.Fatalf("allocs per merge at 50 rows %v, at 500 rows %v (disjoint, overlapping)", counts[:2], counts[2:])
	}
	t.Logf("allocs per merge (disjoint, overlapping): %v", counts[:2])
}

// allocPayload encodes ops rows cycling the running example's relations,
// attribute a of row i holding the name a + i mod domain, and returns the
// payload and its binding count. Once the rows have cycled through the
// domain the bindings stop growing with the op count.
func allocPayload(t testing.TB, sch *Schema, ops, domain int) ([]byte, int) {
	t.Helper()
	rels := sch.Relations()
	enc := NewBinBatchEncoder(sch)
	for i := 0; i < ops; i++ {
		rel := rels[i%len(rels)]
		attrs, err := sch.RelationAttrs(rel)
		if err != nil {
			t.Fatal(err)
		}
		row := make(map[string]string, len(attrs))
		for _, a := range attrs {
			row[a] = fmt.Sprintf("%s%d", a, i%domain)
		}
		if err := enc.Add(rel, row); err != nil {
			t.Fatal(err)
		}
	}
	return enc.Bytes(), len(enc.rec.Interns)
}

// lastByteRoute routes an op by the last byte of its first value's name.
func lastByteRoute(n int) func(rel int, name func(j int) []byte) int {
	return func(rel int, name func(j int) []byte) int {
		nm := name(0)
		return int(nm[len(nm)-1]) % n
	}
}

// TestDecodeBinBatchAllocsFlat pins the node decode's allocations: the
// same at 64 ops as at 512 over the same bindings, and at most one more
// per extra binding (the name's copy into the dictionary).
func TestDecodeBinBatchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(payload []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := cs.decodeBinBatch(payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	p64, b64 := allocPayload(t, sch, 64, 7)
	p512, b512 := allocPayload(t, sch, 512, 7)
	wide, bWide := allocPayload(t, sch, 64, 32)
	if b64 != b512 || bWide <= b64 {
		t.Fatalf("bindings: %d at 64 ops, %d at 512, %d over the wide domain", b64, b512, bWide)
	}
	a64, a512, aWide := allocs(p64), allocs(p512), allocs(wide)
	if a512 != a64 {
		t.Fatalf("decode allocates %v times at 64 ops, %v at 512 over the same %d bindings", a64, a512, b64)
	}
	if aWide-a64 > float64(bWide-b64) {
		t.Fatalf("decode allocates %v times over %d bindings, %v over %d: more than one per binding",
			a64, b64, aWide, bWide)
	}
	t.Logf("allocs per decode: %v over %d bindings, %v over %d", a64, b64, aWide, bWide)
}

// TestSplitBinBatchAllocsFlat pins the split's allocations: the same at 64
// ops as at 512, and at most one more per extra destination.
func TestSplitBinBatchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	sch := binTestSchema(t)
	p64, _ := allocPayload(t, sch, 64, 7)
	p512, _ := allocPayload(t, sch, 512, 7)
	var counts [2][2]float64 // [2 or 4 destinations][64 or 512 ops]
	for di, n := range []int{2, 4} {
		route := lastByteRoute(n)
		for pi, payload := range [][]byte{p64, p512} {
			subs, _, err := sch.SplitBinBatch(payload, n, route)
			if err != nil {
				t.Fatal(err)
			}
			for d, sub := range subs {
				if sub == nil {
					t.Fatalf("%d destinations: destination %d got no ops", n, d)
				}
			}
			counts[di][pi] = testing.AllocsPerRun(50, func() {
				if _, _, err := sch.SplitBinBatch(payload, n, route); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	if counts[0][0] != counts[0][1] || counts[1][0] != counts[1][1] {
		t.Fatalf("split allocations at 64 and 512 ops: %v over 2 destinations, %v over 4", counts[0], counts[1])
	}
	if counts[1][0] > counts[0][0]+2 {
		t.Fatalf("split allocates %v times over 2 destinations, %v over 4", counts[0][0], counts[1][0])
	}
	t.Logf("allocs per split: %v over 2 destinations, %v over 4", counts[0][0], counts[1][0])
}

// TestHostileIDAllocBudget pins that a client id sizes nothing: decoding
// or splitting a payload of one binding, of id 2^40, allocates under 4 KiB.
func TestHostileIDAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	sch := binTestSchema(t)
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	payload := wal.AppendRecordFrame(nil, wal.Record{Interns: []wal.Binding{{Value: 1 << 40, Name: "c"}}})
	route := lastByteRoute(2)
	for what, f := range map[string]func() error{
		"decode": func() error { _, err := cs.decodeBinBatch(payload); return err },
		"split":  func() error { _, _, err := sch.SplitBinBatch(payload, 2, route); return err },
	} {
		run := func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 100
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes >= 4<<10 {
			t.Fatalf("%s of one binding of id 2^40 allocates %d bytes (%v allocations)", what, bytes, allocs)
		} else {
			t.Logf("%s: %v allocations, %d bytes", what, allocs, bytes)
		}
	}
}
