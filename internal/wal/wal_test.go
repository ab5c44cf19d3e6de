package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"indep/internal/relation"
)

// insertRec is a one-insert record, the shape most log tests append.
func insertRec(rel int, t relation.Tuple) Record {
	return Record{Ops: []TupleOp{{Rel: rel, Tuple: t}}}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{},
		{Interns: []Binding{{Value: 0, Name: ""}, {Value: 12345, Name: "CS402"}, {Value: 63, Name: "name with spaces\x00and bytes\xff"}}},
		insertRec(0, relation.Tuple{}),
		insertRec(3, relation.Tuple{1, -2, 3000000000}),
		{Ops: []TupleOp{{Rel: 7, Tuple: relation.Tuple{0}, Delete: true}}},
		{Ops: []TupleOp{{Rel: 1, Tuple: relation.Tuple{5, 6}}, {Rel: 2, Tuple: relation.Tuple{7}}}},
		{
			Interns: []Binding{{Value: 1, Name: "a"}, {Value: 65, Name: "b"}},
			Ops: []TupleOp{
				{Rel: 0, Tuple: relation.Tuple{1, 65}},
				{Rel: 1, Tuple: relation.Tuple{65}},
				{Rel: 0, Tuple: relation.Tuple{2, 3}, Delete: true},
			},
		},
	}
	for i, r := range recs {
		got, err := DecodeRecord(r.appendPayload(nil))
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("record %d: roundtrip mismatch:\n got %+v\nwant %+v", i, got, r)
		}
	}

	// The encoding writes inserts before deletes whatever the op order.
	mixed := Record{Ops: []TupleOp{
		{Rel: 0, Tuple: relation.Tuple{1}, Delete: true},
		{Rel: 1, Tuple: relation.Tuple{2}},
		{Rel: 0, Tuple: relation.Tuple{3}, Delete: true},
		{Rel: 1, Tuple: relation.Tuple{4}},
	}}
	got, err := DecodeRecord(mixed.appendPayload(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := []TupleOp{mixed.Ops[1], mixed.Ops[3], mixed.Ops[0], mixed.Ops[2]}
	if !reflect.DeepEqual(got.Ops, want) {
		t.Fatalf("mixed record decoded as %+v, want inserts first %+v", got.Ops, want)
	}
}

func TestDecodeRecordRejectsTrailing(t *testing.T) {
	payload := insertRec(1, relation.Tuple{9}).appendPayload(nil)
	if _, err := DecodeRecord(append(payload, 0)); err == nil {
		t.Fatal("trailing byte not rejected")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("empty payload not rejected")
	}
	if _, err := DecodeRecord([]byte{99}); err == nil || errors.Is(err, ErrLegacyRecord) {
		t.Fatalf("unknown kind: %v, want an unknown-kind error", err)
	}
	// The retired per-operation kinds: one binding, one insert, one delete,
	// counted inserts. Each is well formed in its old layout.
	for _, p := range [][]byte{
		{1, 10, 5, 'C', 'S', '4', '0', '2'},
		{2, 1, 2, 2, 4},
		{3, 0, 1, 13},
		{4, 1, 0, 1, 18},
	} {
		if _, err := DecodeRecord(p); !errors.Is(err, ErrLegacyRecord) {
			t.Fatalf("kind %d payload %x: %v, want ErrLegacyRecord", p[0], p, err)
		}
	}
	// Counts beyond the payload are refused before anything is allocated.
	for _, p := range [][]byte{
		{kindCommit, 0xff, 0xff, 0xff, 0x7f},
		{kindCommit, 0, 0xff, 0xff, 0xff, 0x7f, 0},
		{kindCommit, 0, 1, 1, 0, 0},
	} {
		if _, err := DecodeRecord(p); err == nil {
			t.Fatalf("absurd count in %x not rejected", p)
		}
	}
}

func TestFrameTornTail(t *testing.T) {
	var buf []byte
	buf = AppendRecordFrame(buf, insertRec(1, relation.Tuple{1, 2}))
	whole := len(buf)
	buf = AppendRecordFrame(buf, insertRec(2, relation.Tuple{3}))

	// frame parses the frame at the start of b, as recovery does: any
	// error is the torn-tail condition.
	frame := func(b []byte) (rest []byte, ok bool) {
		_, n, err := NextStreamFrame(b)
		if err != nil {
			return nil, false
		}
		return b[n:], true
	}

	// Complete buffer: two frames.
	rest, ok := frame(buf)
	if !ok || len(rest) == 0 {
		t.Fatal("first frame should parse")
	}
	if rest2, ok := frame(rest); !ok || len(rest2) != 0 {
		t.Fatal("second frame should parse to empty rest")
	}

	// Every proper prefix that cuts into the second frame: first frame
	// parses, second is torn.
	for cut := whole; cut < len(buf); cut++ {
		rest, ok := frame(buf[:cut])
		if !ok {
			t.Fatalf("cut %d: first frame should still parse", cut)
		}
		if _, ok := frame(rest); ok {
			t.Fatalf("cut %d: torn second frame parsed", cut)
		}
	}

	// Corrupting any byte of the second frame tears it.
	for off := whole; off < len(buf); off++ {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0xff
		rest, ok := frame(mut)
		if !ok {
			t.Fatalf("offset %d: first frame affected", off)
		}
		if _, ok := frame(rest); ok {
			t.Fatalf("offset %d: corrupt second frame parsed", off)
		}
	}
}

// replayAll replays dir from seq 0 and returns the records.
func replayAll(t *testing.T, dir string, fromSeq uint64) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	stats, err := Replay(dir, fromSeq, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, stats
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Interns: []Binding{{Value: 1, Name: "a"}}},
		insertRec(0, relation.Tuple{1, 2}),
		{Ops: []TupleOp{{Rel: 0, Tuple: relation.Tuple{1, 2}, Delete: true}}},
		{
			Interns: []Binding{{Value: 2, Name: "b"}},
			Ops: []TupleOp{
				{Rel: 1, Tuple: relation.Tuple{3}},
				{Rel: 0, Tuple: relation.Tuple{4, 5}},
				{Rel: 1, Tuple: relation.Tuple{2}, Delete: true},
			},
		},
	}
	for _, r := range want {
		if err := l.Append(r).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, dir, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if stats.TruncatedBytes != 0 || stats.Skipped != 0 {
		t.Fatalf("unexpected stats %+v", stats)
	}
}

// TestLogAppendsOversizeBindings: a record whose bindings outgrow what the
// decoder takes in one frame — more bindings than its count limit, or more
// bytes than half its payload limit — is appended as several frames that all
// decode, bindings alone first and the rest with the ops. Replay returns
// every binding in order and the ops last. The limits are shrunk so the
// test stays small; at their real size the overflow takes a dictionary of
// millions of values, as a follower restores from a large snapshot.
func TestLogAppendsOversizeBindings(t *testing.T) {
	defer func(p, n int) { maxPayload, maxBatchOps = p, n }(maxPayload, maxBatchOps)
	maxPayload, maxBatchOps = 1<<12, 64
	for _, nameLen := range []int{1, 200} { // count-bound, then byte-bound
		want := Record{Ops: []TupleOp{
			{Rel: 0, Tuple: relation.Tuple{1, 2}},
			{Rel: 1, Tuple: relation.Tuple{3}, Delete: true},
		}}
		for i := 0; i < 500; i++ {
			name := string(bytes.Repeat([]byte{'a' + byte(i%26)}, nameLen))
			want.Interns = append(want.Interns, Binding{Value: relation.Value(i), Name: name})
		}
		dir := t.TempDir()
		l, err := OpenLog(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(want).Wait(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, stats := replayAll(t, dir, 0)
		if stats.TruncatedBytes != 0 || stats.Skipped != 0 || len(got) < 2 {
			t.Fatalf("names of %d bytes: %d frames, stats %+v; want several frames, none cut", nameLen, len(got), stats)
		}
		var binds []Binding
		for i, r := range got {
			if len(r.Interns) > maxBatchOps || (i < len(got)-1) != (r.Ops == nil) {
				t.Fatalf("names of %d bytes: frame %d holds %d bindings and %d ops", nameLen, i, len(r.Interns), len(r.Ops))
			}
			binds = append(binds, r.Interns...)
		}
		if !reflect.DeepEqual(binds, want.Interns) || !reflect.DeepEqual(got[len(got)-1].Ops, want.Ops) {
			t.Fatalf("names of %d bytes: the frames do not add up to the record", nameLen)
		}
	}
}

func TestLogGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 50
	var wg sync.WaitGroup
	var acked atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(insertRec(w, relation.Tuple{relation.Value(i)})).Wait(); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				// The writer publishes a group's counters before it
				// acknowledges any of its waiters, so every acknowledged
				// append is already counted.
				done := acked.Add(1)
				if got := l.Stats().Records; got < done {
					t.Errorf("Stats().Records = %d after %d acknowledged appends", got, done)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != workers*each {
		t.Fatalf("records = %d, want %d", st.Records, workers*each)
	}
	if st.CommitGroups == 0 || st.CommitGroups > st.Records {
		t.Fatalf("implausible commit groups %d for %d records", st.CommitGroups, st.Records)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir, 0)
	if len(recs) != workers*each {
		t.Fatalf("replayed %d, want %d", len(recs), workers*each)
	}
	// Per-relation order must match append order.
	next := make([]int, workers)
	for _, r := range recs {
		w := r.Ops[0].Rel
		if got := int(r.Ops[0].Tuple[0]); got != next[w] {
			t.Fatalf("relation %d: replayed %d out of order (want %d)", w, got, next[w])
		}
		next[w]++
	}
}

func TestLogRotationAndRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{SegmentBytes: 256, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := l.Append(insertRec(0, relation.Tuple{relation.Value(i), relation.Value(i)})).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments after rotation, got %d", st.Segments)
	}
	cut := l.Rotate()
	if err := l.RemoveBefore(cut); err != nil {
		t.Fatal(err)
	}
	st = l.Stats()
	if st.OldestSeq < cut {
		t.Fatalf("oldest segment %d survived RemoveBefore(%d)", st.OldestSeq, cut)
	}
	// Everything before the cut is gone; replay from the cut is empty.
	recs, _ := replayAll(t, dir, cut)
	if len(recs) != 0 {
		t.Fatalf("replayed %d records after full truncation", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRotateCutSeparatesRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	before := insertRec(0, relation.Tuple{1})
	after := insertRec(0, relation.Tuple{2})
	l.Append(before)
	cut := l.Rotate()
	if err := l.Append(after).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	pre, _ := replayAll(t, dir, 0)
	post, _ := replayAll(t, dir, cut)
	if len(pre) != 2 {
		t.Fatalf("full replay saw %d records, want 2", len(pre))
	}
	if len(post) != 1 || !reflect.DeepEqual(post[0], after) {
		t.Fatalf("replay from cut %d saw %+v, want just the after-record", cut, post)
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(insertRec(0, relation.Tuple{1}))
	if err := l.Append(insertRec(0, relation.Tuple{2})).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqs(dir, segPattern)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop 3 bytes off the final frame.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats := replayAll(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1 (tail truncated)", len(recs))
	}
	if stats.TruncatedBytes == 0 {
		t.Fatal("truncation not reported")
	}
	// The file was repaired: a second replay sees a clean log.
	recs, stats = replayAll(t, dir, 0)
	if len(recs) != 1 || stats.TruncatedBytes != 0 {
		t.Fatalf("second replay: %d records, stats %+v", len(recs), stats)
	}
}

// TestReplayTornHeaderSegment simulates a crash inside openSegment: the
// newest segment has a partial header. Recovery must drop the file — and a
// SECOND recovery pass over the same directory must still succeed (a
// zero-truncated remnant would read as a corrupt sealed segment).
func TestReplayTornHeaderSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(insertRec(0, relation.Tuple{1})).Wait(); err != nil {
		t.Fatal(err)
	}
	seq := l.Stats().ActiveSeq
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, segName(seq+1))
	if err := os.WriteFile(torn, []byte(segMagic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats := replayAll(t, dir, 0)
	if len(recs) != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("first recovery: %d records, stats %+v", len(recs), stats)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn-header segment still present: %v", err)
	}
	// The crucial part: recovering AGAIN does not brick.
	recs, _ = replayAll(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("second recovery: %d records, want 1", len(recs))
	}
	// And the log still opens for appending.
	l2, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(insertRec(0, relation.Tuple{2})).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, _ := replayAll(t, dir, 0); len(recs) != 2 {
		t.Fatalf("after reopen: %d records, want 2", len(recs))
	}

	// A sealed segment's header is never torn: bad magic, or a header that
	// declares another sequence number, fails replay naming the segment,
	// and the segment stays on disk.
	header := func(magic string, seq uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte(magic), seq)
	}
	for name, bad := range map[string]func(seq uint64) []byte{
		"bad magic":   func(seq uint64) []byte { return header("NOTAWAL!", seq) },
		"another seq": func(seq uint64) []byte { return header(segMagic, seq+7) },
	} {
		dir := t.TempDir()
		l, err := OpenLog(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(insertRec(0, relation.Tuple{1})).Wait(); err != nil {
			t.Fatal(err)
		}
		seq := l.Stats().ActiveSeq
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		sealed := filepath.Join(dir, segName(seq+1))
		if err := os.WriteFile(sealed, bad(seq+1), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(seq+2)), header(segMagic, seq+2), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Replay(dir, 0, func(Record) error { return nil })
		if err == nil || !strings.Contains(err.Error(), segName(seq+1)) {
			t.Fatalf("%s: replay error %v, want one naming %s", name, err, segName(seq+1))
		}
		if _, err := os.Stat(sealed); err != nil {
			t.Fatalf("%s: sealed segment removed: %v", name, err)
		}
	}
}

func TestReplayRejectsSegmentGap(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(insertRec(0, relation.Tuple{1})).Wait()
	seq := l.Rotate()
	l.Append(insertRec(0, relation.Tuple{2})).Wait()
	l.Rotate()
	l.Append(insertRec(0, relation.Tuple{3})).Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segName(seq))); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("gap in segment sequence not detected")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := &Checkpoint{
		Seq: 7,
		Dict: []Binding{
			{Value: 0, Name: "x"},
			{Value: 64, Name: "y"},
		},
		// Rows (1,2),(3,4) in scheme 0 and (5) in scheme 2, column-major.
		Cols: [][][]relation.Value{
			{{1, 3}, {2, 4}},
			{},
			{{5}},
		},
		Counts: []int{2, 0, 1},
	}
	if _, err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != ck.Seq || !reflect.DeepEqual(got.Dict, ck.Dict) {
		t.Fatalf("checkpoint mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Counts, ck.Counts) {
		t.Fatalf("counts %v, want %v", got.Counts, ck.Counts)
	}
	for i, cols := range ck.Cols {
		if len(got.Cols[i]) != len(cols) {
			t.Fatalf("scheme %d: arity %d, want %d", i, len(got.Cols[i]), len(cols))
		}
		for c, col := range cols {
			if g, w := got.Cols[i][c][:got.Counts[i]], col[:ck.Counts[i]]; !reflect.DeepEqual(g, w) {
				t.Fatalf("scheme %d column %d: %v, want %v", i, c, g, w)
			}
		}
	}

	// A newer but corrupt checkpoint falls back to the older good one.
	bad := &Checkpoint{Seq: 9}
	if _, err := WriteCheckpoint(dir, bad); err != nil {
		t.Fatal(err)
	}
	// Re-write the good one (WriteCheckpoint GCs others, so put both back).
	if _, err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	data := bad.Encode()
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, ckptName(9)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 {
		t.Fatalf("fallback picked seq %d, want 7", got.Seq)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	ck := &Checkpoint{Seq: 3, Dict: []Binding{{Value: 1, Name: "v"}},
		Cols: [][][]relation.Value{{{1}, {2}, {3}}}, Counts: []int{1}}
	data := ck.Encode()
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x55
		if bytes.Equal(mut, data) {
			continue
		}
		if _, err := DecodeCheckpointBytes(mut); err == nil {
			t.Fatalf("corruption at offset %d undetected", off)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeCheckpointBytes(data[:cut]); err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

func TestOpenLogStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	first := l.Stats().ActiveSeq
	l.Append(insertRec(0, relation.Tuple{1})).Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Stats().ActiveSeq; got <= first {
		t.Fatalf("reopen reused segment %d (first was %d)", got, first)
	}
	recs, _ := replayAll(t, dir, 0)
	if len(recs) != 1 {
		t.Fatalf("replay after reopen: %d records", len(recs))
	}
}

func TestLogStatsDepth(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append(insertRec(0, relation.Tuple{relation.Value(i)})).Wait()
	}
	l.Sync()
	st := l.Stats()
	if st.TotalBytes <= segHeader {
		t.Fatalf("TotalBytes %d does not reflect appended data", st.TotalBytes)
	}
	if st.Segments != 1 {
		t.Fatalf("Segments = %d, want 1", st.Segments)
	}
}
