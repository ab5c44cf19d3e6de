package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"indep/internal/relation"
)

func TestPositionParseRoundTrip(t *testing.T) {
	cases := []Position{{}, {Seq: 1, Off: 0}, {Seq: 3, Off: 16}, {Seq: 42, Off: 1 << 40}}
	for _, p := range cases {
		got, err := ParsePosition(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v err %v", p, got, err)
		}
	}
	if p, err := ParsePosition(""); err != nil || !p.IsZero() {
		t.Fatalf("empty token: got %v err %v", p, err)
	}
	for _, bad := range []string{"x", "1", "1/", "/2", "1/2/3", "a/b", "1/-5", "-1/2"} {
		if _, err := ParsePosition(bad); err == nil {
			t.Fatalf("ParsePosition(%q) accepted", bad)
		}
	}
	if !(Position{Seq: 1, Off: 9}).Less(Position{Seq: 2, Off: 0}) ||
		!(Position{Seq: 2, Off: 1}).Less(Position{Seq: 2, Off: 2}) ||
		(Position{Seq: 2, Off: 2}).Less(Position{Seq: 2, Off: 2}) {
		t.Fatal("Less is not lexicographic")
	}
}

// drainStream pulls the whole log through the cursor protocol, verifying
// segment headers and decoding every frame — the follower's ingest loop in
// miniature. It returns the records and the final cursor position.
func drainStream(t *testing.T, l *Log, pos Position) ([]Record, Position) {
	t.Helper()
	var recs []Record
	var buf []byte            // unparsed bytes of segment bufSeq
	bufSeq := pos.Seq         // segment the buffer belongs to
	headerDone := pos.Off > 0 // starting mid-segment: header already consumed
	for {
		data, next, err := l.ReadAt(pos, 64) // tiny chunks: exercise frame splits
		if err != nil {
			t.Fatalf("ReadAt(%v): %v", pos, err)
		}
		if len(data) == 0 && next == pos {
			if len(buf) != 0 {
				t.Fatalf("stream ended with %d unparsed bytes", len(buf))
			}
			return recs, pos
		}
		buf = append(buf, data...)
		pos = next
		if !headerDone {
			if len(buf) < SegmentHeaderBytes {
				continue
			}
			if err := CheckSegmentHeader(buf, bufSeq); err != nil {
				t.Fatalf("segment %d header: %v", bufSeq, err)
			}
			buf = buf[SegmentHeaderBytes:]
			headerDone = true
		}
		for {
			payload, n, err := NextStreamFrame(buf)
			if errors.Is(err, ErrShortFrame) {
				break
			}
			if err != nil {
				t.Fatalf("frame in segment %d: %v", bufSeq, err)
			}
			rec, err := DecodeRecord(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			recs = append(recs, rec)
			buf = buf[n:]
		}
		if pos.Seq != bufSeq { // sealed segment fully served; move on
			if len(buf) != 0 {
				t.Fatalf("segment %d ended mid-frame (%d bytes pending)", bufSeq, len(buf))
			}
			bufSeq = pos.Seq
			headerDone = false
		}
	}
}

func TestReadAtStreamsWholeLog(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	want := []Record{
		{Interns: []Binding{{Value: 0, Name: "alpha"}}},
		insertRec(0, relation.Tuple{0, 1}),
		{Ops: []TupleOp{{Rel: 1, Tuple: relation.Tuple{2, 3}}, {Rel: 0, Tuple: relation.Tuple{4}}}},
		{Ops: []TupleOp{{Rel: 1, Tuple: relation.Tuple{2, 3}, Delete: true}}},
	}
	for _, r := range want {
		l.Append(r)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	got, end := drainStream(t, l, Position{Seq: 1})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed records mismatch:\n got %+v\nwant %+v", got, want)
	}
	if fl := l.Flushed(); end != fl {
		t.Fatalf("cursor stopped at %v, flushed end %v", end, fl)
	}
}

func TestReadAtCrossesSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var want []Record
	for i := 0; i < 40; i++ {
		r := insertRec(0, relation.Tuple{relation.Value(i), relation.Value(i * i)})
		want = append(want, r)
		if err := l.Append(r).Wait(); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			l.Rotate()
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.ActiveSeq < 4 {
		t.Fatalf("expected rotations, active seq %d", st.ActiveSeq)
	}

	got, _ := drainStream(t, l, Position{Seq: 1})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-segment stream mismatch: got %d records, want %d", len(got), len(want))
	}
}

func TestReadAtSegmentGone(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if err := l.Append(insertRec(0, relation.Tuple{1})).Wait(); err != nil {
		t.Fatal(err)
	}
	cut := l.Rotate()
	if err := l.Append(insertRec(0, relation.Tuple{2})).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveBefore(cut); err != nil {
		t.Fatal(err)
	}

	if _, _, err := l.ReadAt(Position{Seq: 1}, 0); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("truncated segment: got %v, want ErrSegmentGone", err)
	}
	// The surviving segment still streams.
	recs, _ := drainStream(t, l, Position{Seq: cut})
	if len(recs) != 1 {
		t.Fatalf("surviving segment: got %d records", len(recs))
	}
}

func TestReadAtEdges(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(insertRec(0, relation.Tuple{7})).Wait(); err != nil {
		t.Fatal(err)
	}

	// Future segment: no data, no error, cursor unchanged.
	future := Position{Seq: l.Stats().ActiveSeq + 3}
	if data, next, err := l.ReadAt(future, 0); err != nil || len(data) != 0 || next != future {
		t.Fatalf("future segment: data %d next %v err %v", len(data), next, err)
	}

	// At the flushed end of the active segment: poll again later.
	end := l.Flushed()
	if data, next, err := l.ReadAt(end, 0); err != nil || len(data) != 0 || next != end {
		t.Fatalf("flushed end: data %d next %v err %v", len(data), next, err)
	}

	// Past the end of a sealed segment: the cursor's history has forked.
	seal := l.Flushed()
	l.Rotate()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadAt(Position{Seq: seal.Seq, Off: seal.Off + 999}, 0); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("past sealed end: got %v, want ErrSegmentGone", err)
	}
	// Exactly at the sealed end: advance to the next segment.
	if _, next, err := l.ReadAt(seal, 0); err != nil || next != (Position{Seq: seal.Seq + 1}) {
		t.Fatalf("at sealed end: next %v err %v", next, err)
	}
}

func TestCheckSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Interns: []Binding{{Value: 0, Name: "x"}}}).Wait(); err != nil {
		t.Fatal(err)
	}
	data, _, err := l.ReadAt(Position{Seq: 1}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := CheckSegmentHeader(data, 1); err != nil {
		t.Fatalf("good header rejected: %v", err)
	}
	if err := CheckSegmentHeader(data[:7], 1); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short header: got %v", err)
	}
	if err := CheckSegmentHeader(data, 2); err == nil {
		t.Fatal("wrong sequence accepted")
	}
	bad := append([]byte("NOTAWAL!"), data[8:]...)
	if err := CheckSegmentHeader(bad, 1); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestNextStreamFrameErrors(t *testing.T) {
	frame := AppendRecordFrame(nil, insertRec(0, relation.Tuple{1, 2, 3}))

	// Every proper prefix is short, never corrupt.
	for i := 0; i < len(frame); i++ {
		if _, _, err := NextStreamFrame(frame[:i]); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("prefix %d: got %v, want ErrShortFrame", i, err)
		}
	}
	payload, n, err := NextStreamFrame(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("full frame: n %d err %v", n, err)
	}
	if _, err := DecodeRecord(payload); err != nil {
		t.Fatalf("payload decode: %v", err)
	}

	// A flipped payload byte is corruption, not shortness.
	bad := bytes.Clone(frame)
	bad[frameHeader] ^= 0xff
	if _, _, err := NextStreamFrame(bad); err == nil || errors.Is(err, ErrShortFrame) {
		t.Fatalf("corrupt frame: got %v", err)
	}
	// An absurd length is corruption even if the buffer is short.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, _, err := NextStreamFrame(huge); err == nil || errors.Is(err, ErrShortFrame) {
		t.Fatalf("absurd length: got %v", err)
	}
}

func TestCheckpointEncodeExports(t *testing.T) {
	ck := &Checkpoint{Seq: 9, Dict: []Binding{{Value: 3, Name: "bob"}},
		Cols: [][][]relation.Value{{{3}, {3}}, {}}, Counts: []int{1, 0}}
	got, err := DecodeCheckpointBytes(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("exported codec round trip:\n got %+v\nwant %+v", got, ck)
	}
	if _, err := DecodeCheckpointBytes([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}
