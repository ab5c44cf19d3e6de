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

// DecodeRecord parses one record payload. Trailing bytes are an error: a
// frame holds exactly one record. A payload of a retired kind is refused
// with ErrLegacyRecord. Empty Interns and Ops decode as nil.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wal: empty record payload")
	}
	switch k := payload[0]; {
	case k >= 1 && k <= 4:
		return Record{}, ErrLegacyRecord
	case k != kindCommit:
		return Record{}, fmt.Errorf("wal: unknown record kind %d", k)
	}
	var r Record
	n, b, err := readCount(payload[1:], "bindings")
	if err != nil {
		return Record{}, err
	}
	if n > 0 {
		r.Interns = make([]Binding, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var bd Binding
		if bd, b, err = readBinding(b); err != nil {
			return Record{}, err
		}
		r.Interns = append(r.Interns, bd)
	}
	var ins, dels uint64
	if ins, b, err = readCount(b, "inserts"); err != nil {
		return Record{}, err
	}
	if dels, b, err = readCount(b, "deletes"); err != nil {
		return Record{}, err
	}
	if ins+dels > uint64(maxBatchOps) || ins+dels > uint64(len(b))/2 {
		return Record{}, fmt.Errorf("wal: record of %d ops exceeds payload", ins+dels)
	}
	if ins+dels > 0 {
		r.Ops = make([]TupleOp, 0, ins+dels)
	}
	if r.Ops, b, err = readTupleOps(b, ins, false, r.Ops); err != nil {
		return Record{}, err
	}
	if r.Ops, b, err = readTupleOps(b, dels, true, r.Ops); err != nil {
		return Record{}, err
	}
	if len(b) != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", len(b))
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

func readBinding(b []byte) (Binding, []byte, error) {
	v, b, err := readVarint(b)
	if err != nil {
		return Binding{}, nil, err
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return Binding{}, nil, err
	}
	if n > uint64(len(b)) {
		return Binding{}, nil, fmt.Errorf("wal: intern name length %d exceeds payload", n)
	}
	return Binding{Value: relation.Value(v), Name: string(b[:n])}, b[n:], nil
}

// readTupleOps appends n tuple ops, each marked del, to ops.
func readTupleOps(b []byte, n uint64, del bool, ops []TupleOp) ([]TupleOp, []byte, error) {
	for i := uint64(0); i < n; i++ {
		op, rest, err := readTupleOp(b)
		if err != nil {
			return nil, nil, err
		}
		op.Delete = del
		ops = append(ops, op)
		b = rest
	}
	return ops, b, nil
}

func readTupleOp(b []byte) (TupleOp, []byte, error) {
	rel, b, err := readUvarint(b)
	if err != nil {
		return TupleOp{}, nil, err
	}
	arity, b, err := readUvarint(b)
	if err != nil {
		return TupleOp{}, nil, err
	}
	if arity > uint64(len(b)) { // each value takes ≥ 1 byte
		return TupleOp{}, nil, fmt.Errorf("wal: tuple arity %d exceeds payload", arity)
	}
	t := make(relation.Tuple, arity)
	for i := range t {
		var v int64
		v, b, err = readVarint(b)
		if err != nil {
			return TupleOp{}, nil, err
		}
		t[i] = relation.Value(v)
	}
	return TupleOp{Rel: int(rel), Tuple: t}, b, nil
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
