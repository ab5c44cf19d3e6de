package wal

import (
	"reflect"
	"testing"

	"indep/internal/relation"
)

// FuzzDecodeRecord asserts the record decoder is total — arbitrary bytes
// either decode or error, never panic or over-allocate — and that decoding
// is stable: re-encoding an accepted record and decoding again yields the
// same record.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(Record{
		Interns: []Binding{{5, "CS402"}, {69, "jones"}},
		Ops: []TupleOp{
			{Rel: 1, Tuple: relation.Tuple{5, 69, 3}},
			{Rel: 0, Tuple: relation.Tuple{-7}, Delete: true},
		},
	}.appendPayload(nil))
	f.Add(Record{}.appendPayload(nil))
	f.Add(legacyIntern(5, "CS402"))
	f.Add(legacyOp(kindInsert, TupleOp{Rel: 1, Tuple: relation.Tuple{1, 2, 3}}))
	f.Add(legacyOp(kindDelete, TupleOp{Rel: 0, Tuple: relation.Tuple{-7}}))
	f.Add(legacyBatch(TupleOp{Rel: 2, Tuple: relation.Tuple{9}}))
	f.Add([]byte{})
	f.Add([]byte{4, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1})    // absurd batch count
	f.Add([]byte{5, 0, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd insert count
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		again, err := DecodeRecord(rec.appendPayload(nil))
		if err != nil {
			t.Fatalf("re-encoding accepted payload %x failed to decode: %v", payload, err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("decode not stable for %x:\n first %+v\nsecond %+v", payload, rec, again)
		}
	})
}

// FuzzReplRecordStream asserts the streaming frame parser is total and
// chunking-invariant: feeding arbitrary bytes in arbitrary chunk sizes
// (buffering on ErrShortFrame, exactly as a replication follower does)
// yields the same frame sequence as parsing the whole buffer at once, and
// never panics. This is the property that lets the follower accept segment
// bytes split at any boundary the transport or a fault injector picks.
func FuzzReplRecordStream(f *testing.F) {
	var good []byte
	good = AppendRecordFrame(good, Record{
		Interns: []Binding{{1, "s"}},
		Ops:     []TupleOp{{Rel: 0, Tuple: relation.Tuple{1, 2}}, {Rel: 1, Tuple: relation.Tuple{1}, Delete: true}},
	})
	good = AppendRecordFrame(good, Record{Ops: []TupleOp{{Rel: 0, Tuple: relation.Tuple{1, 2}, Delete: true}}})
	var legacy []byte
	legacy = rawFrame(legacy, legacyIntern(1, "s"))
	legacy = rawFrame(legacy, legacyOp(kindInsert, TupleOp{Rel: 0, Tuple: relation.Tuple{1, 2}}))
	legacy = rawFrame(legacy, legacyOp(kindDelete, TupleOp{Rel: 0, Tuple: relation.Tuple{1, 2}}))
	legacy = rawFrame(legacy, legacyBatch(TupleOp{Rel: 0, Tuple: relation.Tuple{3, 4}}))
	f.Add(good, uint8(3))
	f.Add(good[:len(good)-3], uint8(1))
	f.Add(legacy, uint8(7))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint8(5))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		// Whole-buffer parse.
		var whole [][]byte
		wholeCorrupt := false
		rest := data
		for {
			payload, n, err := NextStreamFrame(rest)
			if err == ErrShortFrame {
				break
			}
			if err != nil {
				wholeCorrupt = true
				break
			}
			whole = append(whole, append([]byte(nil), payload...))
			rest = rest[n:]
		}

		// Chunked parse: deliver data in chunk-sized pieces, buffering
		// short frames across chunk boundaries.
		size := int(chunk)%64 + 1
		var chunked [][]byte
		chunkedCorrupt := false
		var buf []byte
		src := data
		for len(src) > 0 && !chunkedCorrupt {
			n := size
			if n > len(src) {
				n = len(src)
			}
			buf = append(buf, src[:n]...)
			src = src[n:]
			for {
				payload, fn, err := NextStreamFrame(buf)
				if err == ErrShortFrame {
					break
				}
				if err != nil {
					chunkedCorrupt = true
					break
				}
				chunked = append(chunked, append([]byte(nil), payload...))
				buf = buf[fn:]
			}
		}

		if wholeCorrupt != chunkedCorrupt {
			t.Fatalf("corruption verdict differs: whole %v chunked %v", wholeCorrupt, chunkedCorrupt)
		}
		if !reflect.DeepEqual(whole, chunked) {
			t.Fatalf("chunked parse diverges: whole %d frames, chunked %d", len(whole), len(chunked))
		}
	})
}

// FuzzDecodeCheckpoint asserts the checkpoint decoder is total over
// arbitrary bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	good := (&Checkpoint{Seq: 3, Dict: []Binding{{Value: 1, Name: "v"}},
		Cols: [][][]relation.Value{{{1}, {2}}, {}}, Counts: []int{1, 0}}).encode()
	f.Add(good)
	f.Add(good[:len(good)-5])
	retired := append([]byte(nil), good...) // the version gate: a retired version byte
	retired[len(ckptMagicPrefix)] = '1'
	f.Add(retired)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		again, err := decodeCheckpoint(ck.encode())
		if err != nil {
			t.Fatalf("re-encoding accepted checkpoint failed: %v", err)
		}
		if again.Seq != ck.Seq || len(again.Dict) != len(ck.Dict) || len(again.Cols) != len(ck.Cols) {
			t.Fatalf("checkpoint decode not stable")
		}
	})
}

// FuzzDecodeColumnCheckpoint targets the columnar ('2') checkpoint body
// specifically: arbitrary bytes after a valid v2 prefix must decode or
// error, never panic, and accepted inputs must re-encode stably.
func FuzzDecodeColumnCheckpoint(f *testing.F) {
	v2 := (&Checkpoint{Seq: 11,
		Cols: [][][]relation.Value{{{1, 3}, {2, 4}}, {{-5}}}, Counts: []int{2, 1}}).encode()
	f.Add(v2)
	f.Add((&Checkpoint{Seq: 9, Dict: []Binding{{Value: 2, Name: "q"}},
		Cols: [][][]relation.Value{{{7}, {8}}}, Counts: []int{1}}).encode())
	f.Add([]byte("INDEPCK2"))
	f.Add(v2[:len(v2)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		again, err := decodeCheckpoint(ck.encode())
		if err != nil {
			t.Fatalf("re-encoding accepted checkpoint failed: %v", err)
		}
		if again.Seq != ck.Seq || len(again.Dict) != len(ck.Dict) {
			t.Fatalf("checkpoint decode not stable")
		}
		for i := range ck.Cols {
			if again.Counts[i] != ck.Counts[i] || len(again.Cols[i]) != len(ck.Cols[i]) {
				t.Fatalf("scheme %d shape not stable", i)
			}
		}
	})
}
