// Package wal is the durable storage layer under the concurrent engine: a
// write-ahead log of admitted commits plus snapshot checkpoints.
//
// Independence is what makes this log cheap. For an independent schema the
// engine admits each insert after an O(|F_i|) check local to one relation,
// so the admission decision itself — relation index plus interned values —
// is a complete redo record: replaying the record stream through the same
// guards reconstructs the state without ever re-running a global chase. The
// log therefore stores exactly that: one CRC32-framed record per engine
// commit, holding the dictionary bindings the commit is the first to log,
// its inserts and its deletes. A single group-commit writer coalesces
// concurrent commits into one fsync; the log rotates across numbered
// segments and is truncated by checkpoints that serialize a full snapshot of
// the state and dictionary.
//
// Durability contract: a record whose commit wait returned nil survives any
// crash (under SyncAlways). A torn tail — a partially written final frame —
// is detected by length/CRC checks and truncated on recovery; every frame
// before it is replayed. A commit's ops share one frame (only bindings too
// many for it go ahead in frames of their own), so recovery yields a commit
// prefix of the log, never part of one payload. Replay converges (see
// engine.Engine.Replay), so recovering twice, or recovering a state that
// already contains a checkpointed prefix, reaches the same state.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"indep/internal/relation"
)

// kindCommit is the first byte of every record payload: counted bindings,
// then counted inserts and deletes.
const kindCommit byte = 5

// ErrLegacyRecord refuses a payload of the retired per-operation record
// kinds 1–4 (one binding, one insert, one delete, counted inserts), which
// logs and binary batches held before the commit record. Under them one
// commit spans several frames, so the log contract above would not hold.
var ErrLegacyRecord = errors.New("wal: retired per-operation record (kinds 1-4): " +
	"upgrade a data directory by opening it once with a build from commit ba0fef1 through 9d4763b " +
	"and taking a checkpoint (POST /v1/checkpoint, or a clean indepd shutdown); " +
	"encode binary batches with indep.BinBatchEncoder")

// Binding is one durable dictionary binding: a value and its display name.
type Binding = relation.Binding

// TupleOp addresses one tuple of a record to its relation scheme: an
// insert, or a delete when Delete is set.
type TupleOp struct {
	Rel    int
	Tuple  relation.Tuple
	Delete bool
}

// Record is one log entry: one engine commit. Interns are the dictionary
// bindings the record is the first to carry; Ops are the commit's tuple
// operations. The encoding writes the inserts before the deletes, which is
// the order the engine applies a commit in, so a decoded record lists its
// inserts first.
type Record struct {
	Interns []Binding
	Ops     []TupleOp
}

// appendPayload encodes the record body (everything inside a frame).
func (r Record) appendPayload(buf []byte) []byte {
	buf = append(buf, kindCommit)
	buf = binary.AppendUvarint(buf, uint64(len(r.Interns)))
	for _, b := range r.Interns {
		buf = binary.AppendVarint(buf, int64(b.Value))
		buf = binary.AppendUvarint(buf, uint64(len(b.Name)))
		buf = append(buf, b.Name...)
	}
	dels := 0
	for _, op := range r.Ops {
		if op.Delete {
			dels++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Ops)-dels))
	buf = binary.AppendUvarint(buf, uint64(dels))
	for _, del := range [2]bool{false, true} {
		for _, op := range r.Ops {
			if op.Delete == del {
				buf = appendTupleOp(buf, op)
			}
		}
	}
	return buf
}

func appendTupleOp(buf []byte, op TupleOp) []byte {
	buf = binary.AppendUvarint(buf, uint64(op.Rel))
	buf = binary.AppendUvarint(buf, uint64(len(op.Tuple)))
	for _, v := range op.Tuple {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// The decoder's limits, which AppendRecordFrame keeps to; variables only so
// tests can shrink them. A corrupt length prefix beyond them is corruption,
// not an allocation request.
var (
	maxPayload  = 1 << 28 // bytes in a frame payload
	maxBatchOps = 1 << 22 // each declared count: bindings, inserts plus deletes
)

// A RecordVisitor receives one record's contents from WalkRecord, in
// payload order. Every callback must be set.
type RecordVisitor struct {
	// Bindings is told the record's binding count, then Binding is called
	// once per binding. name aliases the payload.
	Bindings func(n int)
	Binding  func(v relation.Value, name []byte) error
	// Ops is told the record's op count, then Op is called once per tuple
	// op, inserts first. vals holds the op's values in the walk's scratch
	// slice and is valid until Op returns.
	Ops func(n int)
	Op  func(rel int, del bool, vals []relation.Value) error
}

// WalkRecord scans one record payload in place, making every check
// DecodeRecord makes — the kind (a retired one is ErrLegacyRecord), the
// count limits, name lengths, trailing bytes — and hands its contents to v
// without allocating: names alias the payload, and each op's values land in
// scratch, which is grown only when an op is wider than it. It returns
// scratch for the next walk. An error from a callback ends the walk and is
// returned as is; a malformed payload may have been partly visited.
func WalkRecord(payload []byte, scratch []relation.Value, v RecordVisitor) ([]relation.Value, error) {
	if len(payload) == 0 {
		return scratch, fmt.Errorf("wal: empty record payload")
	}
	switch k := payload[0]; {
	case k >= 1 && k <= 4:
		return scratch, ErrLegacyRecord
	case k != kindCommit:
		return scratch, fmt.Errorf("wal: unknown record kind %d", k)
	}
	n, b, err := readCount(payload[1:], "bindings")
	if err != nil {
		return scratch, err
	}
	v.Bindings(int(n))
	for i := uint64(0); i < n; i++ {
		var id int64
		if id, b, err = readVarint(b); err != nil {
			return scratch, err
		}
		var size uint64
		if size, b, err = readUvarint(b); err != nil {
			return scratch, err
		}
		if size > uint64(len(b)) {
			return scratch, fmt.Errorf("wal: intern name length %d exceeds payload", size)
		}
		if err := v.Binding(relation.Value(id), b[:size:size]); err != nil {
			return scratch, err
		}
		b = b[size:]
	}
	var ins, dels uint64
	if ins, b, err = readCount(b, "inserts"); err != nil {
		return scratch, err
	}
	if dels, b, err = readCount(b, "deletes"); err != nil {
		return scratch, err
	}
	if ins+dels > uint64(maxBatchOps) || ins+dels > uint64(len(b))/2 {
		return scratch, fmt.Errorf("wal: record of %d ops exceeds payload", ins+dels)
	}
	v.Ops(int(ins + dels))
	for i := uint64(0); i < ins+dels; i++ {
		var rel, arity uint64
		if rel, b, err = readUvarint(b); err != nil {
			return scratch, err
		}
		if arity, b, err = readUvarint(b); err != nil {
			return scratch, err
		}
		if arity > uint64(len(b)) { // each value takes ≥ 1 byte
			return scratch, fmt.Errorf("wal: tuple arity %d exceeds payload", arity)
		}
		if uint64(cap(scratch)) < arity {
			scratch = make([]relation.Value, arity)
		}
		vals := scratch[:arity]
		for j := range vals {
			var x int64
			if x, b, err = readVarint(b); err != nil {
				return scratch, err
			}
			vals[j] = relation.Value(x)
		}
		if err := v.Op(int(rel), i >= ins, vals); err != nil {
			return scratch, err
		}
	}
	if len(b) != 0 {
		return scratch, fmt.Errorf("wal: %d trailing bytes after record", len(b))
	}
	return scratch, nil
}

// DecodeRecord parses one record payload. Trailing bytes are an error: a
// frame holds exactly one record. A payload of a retired kind is refused
// with ErrLegacyRecord. Empty Interns and Ops decode as nil.
func DecodeRecord(payload []byte) (Record, error) {
	var r Record
	_, err := WalkRecord(payload, nil, RecordVisitor{
		Bindings: func(n int) {
			if n > 0 {
				r.Interns = make([]Binding, 0, n)
			}
		},
		Binding: func(v relation.Value, name []byte) error {
			r.Interns = append(r.Interns, Binding{Value: v, Name: string(name)})
			return nil
		},
		Ops: func(n int) {
			if n > 0 {
				r.Ops = make([]TupleOp, 0, n)
			}
		},
		Op: func(rel int, del bool, vals []relation.Value) error {
			t := make(relation.Tuple, len(vals))
			copy(t, vals)
			r.Ops = append(r.Ops, TupleOp{Rel: rel, Tuple: t, Delete: del})
			return nil
		},
	})
	if err != nil {
		return Record{}, err
	}
	return r, nil
}

// readCount reads an item count. Every counted item (a binding or a tuple
// op) takes at least 2 payload bytes, so a count beyond len(b)/2 is
// corruption — checked BEFORE allocating, so a tiny corrupt frame cannot
// demand a huge slice.
func readCount(b []byte, what string) (uint64, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(maxBatchOps) || n > uint64(len(b))/2 {
		return 0, nil, fmt.Errorf("wal: %d %s exceed payload", n, what)
	}
	return n, b, nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: truncated uvarint")
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wal: truncated varint")
	}
	return v, b[n:], nil
}

// Frame layout: [payloadLen uint32 LE][crc32(payload) uint32 LE][payload].
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecordFrame encodes rec as a CRC-framed payload appended to buf —
// the exact bytes the log writes for the record. The binary batch wire
// protocol reuses it so a client-encoded batch and a journaled commit share
// one encoder, one decoder, and one corruption check (NextStreamFrame +
// DecodeRecord parse both).
//
// A record is one frame unless its bindings outgrow what the decoder takes
// in one: more than maxBatchOps of them, or more than half of maxPayload in
// bytes (the other half is left to the ops). Then the leading bindings go
// first, in frames of bindings alone, and the last frame carries the rest
// with the ops. Every frame decodes, and every binding still precedes the
// ops that may reference it.
func AppendRecordFrame(buf []byte, rec Record) []byte {
	for n, size := 0, 0; n < len(rec.Interns); n++ {
		size += len(rec.Interns[n].Name) + 2*binary.MaxVarintLen64
		if n == maxBatchOps || n > 0 && size > maxPayload/2 {
			buf = appendFrame(buf, Record{Interns: rec.Interns[:n]})
			rec.Interns, n, size = rec.Interns[n:], -1, 0
		}
	}
	return appendFrame(buf, rec)
}

// appendFrame encodes rec as exactly one frame.
func appendFrame(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = rec.appendPayload(buf)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}
