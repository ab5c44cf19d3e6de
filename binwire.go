package indep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"indep/internal/engine"
	"indep/internal/obs"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/wal"
)

// This file is the length-prefixed binary wire protocol for the hot
// ingest/scan path: a batch encoding clients POST to /v1/batchbin, and a
// binary window-result encoding the daemon serves under
// Accept: application/x-indep-bin. Both sides avoid encoding/json entirely.
//
// A binary batch is WAL record frames — BinBatchEncoder writes one (more
// only when its bindings outgrow a frame), the CRC32-framed bytes the log
// itself writes for a commit (wal.AppendRecordFrame) — so the wire format inherits the log's encoder,
// decoder, and corruption detection instead of defining a second
// serialization. Values travel as client-local integer ids bound by the
// record's bindings; the server re-interns each name and remaps ids, so a
// batch is self-contained and ids never leak between requests. A payload of
// several frames, including the per-operation record kinds older clients
// wrote, decodes the same way: frame by frame, bindings before ops.

// BinContentType is the media type of both binary wire encodings: the
// request body of POST /v1/batchbin and the window response the daemon
// serves when the Accept header names it.
const BinContentType = "application/x-indep-bin"

// BinBatchEncoder builds the binary request body for POST /v1/batchbin (or
// ConcurrentStore.ApplyBinBatch directly). Rows accumulate with Add and
// Delete; Bytes renders them as one record. The encoder interns value
// names into a client-local id space and binds each distinct name once, so
// a batch that reuses values (the common ingest shape) carries each name
// once.
//
// An encoder is not safe for concurrent use.
type BinBatchEncoder struct {
	sch  *Schema
	vals map[string]relation.Value // name → client-local id
	rec  wal.Record                // bindings in first-use order, ops in call order
}

// NewBinBatchEncoder creates an empty encoder for the schema. The schema
// fixes each relation's attribute order, which is the tuple's value order on
// the wire — client and server must be opened from the same declaration.
func NewBinBatchEncoder(sch *Schema) *BinBatchEncoder {
	return &BinBatchEncoder{sch: sch, vals: make(map[string]relation.Value)}
}

// intern returns the client-local id for a value name, binding it on first
// use. Ids count from 1.
func (e *BinBatchEncoder) intern(name string) relation.Value {
	if v, ok := e.vals[name]; ok {
		return v
	}
	v := relation.Value(len(e.rec.Interns) + 1)
	e.vals[name] = v
	e.rec.Interns = append(e.rec.Interns, wal.Binding{Value: v, Name: name})
	return v
}

// Add appends one row to the batch. All attributes of the relation scheme
// must be present, exactly as for ConcurrentStore.Insert.
func (e *BinBatchEncoder) Add(rel string, row map[string]string) error {
	return e.add(rel, row, false)
}

// Delete appends one delete to the batch. Within one payload all inserts
// apply before all deletes regardless of call order: Bytes encodes the
// record's inserts before its deletes, and ApplyBinBatch applies the whole
// payload as one atomic commit in that order. Deleting an absent tuple is a
// no-op, never an error, so deletes are safe to retry.
func (e *BinBatchEncoder) Delete(rel string, row map[string]string) error {
	return e.add(rel, row, true)
}

func (e *BinBatchEncoder) add(rel string, row map[string]string, del bool) error {
	i, t, err := rowTuple(e.sch.s, e.intern, rel, row)
	if err != nil {
		return err
	}
	e.rec.Ops = append(e.rec.Ops, wal.TupleOp{Rel: i, Tuple: t, Delete: del})
	return nil
}

// Len returns the number of operations added since the last Reset.
func (e *BinBatchEncoder) Len() int { return len(e.rec.Ops) }

// Bytes renders the batch as one record — the bytes the log writes for a
// commit: the bindings, every added row, then every delete. It is one frame
// unless the bindings outgrow it (see wal.AppendRecordFrame). The
// result is self-contained — it binds every id it references — and decodes
// with ApplyBinBatch.
func (e *BinBatchEncoder) Bytes() []byte {
	return wal.AppendRecordFrame(nil, e.rec)
}

// Reset empties the encoder for the next batch, including the intern table:
// each Bytes result must be self-contained, so bindings cannot carry over.
func (e *BinBatchEncoder) Reset() {
	clear(e.vals)
	e.rec.Interns = e.rec.Interns[:0]
	e.rec.Ops = e.rec.Ops[:0]
}

// binBatchOps walks the frames of a binary batch payload, validating frame
// checksums, bindings (no conflicting rebinds), relation indices, arities,
// and value-id boundness, and calls bind once per binding and op once per
// tuple operation, frame by frame: each record's bindings, then its ops
// (inserts, then deletes). Tuples still hold client-local ids — every one
// guaranteed bound — and callers resolve them through the bindings they
// accumulated. Any error is a malformed payload, reported before op has
// been called for the offending operation.
func binBatchOps(s *schema.Schema, payload []byte,
	bind func(v relation.Value, name string),
	op func(rel int, tuple []relation.Value, del bool) error) error {
	arity := make([]int, s.Size())
	for i := range arity {
		arity[i] = s.Attrs(i).Len()
	}
	names := make(map[relation.Value]string) // client id → name (rebind check)
	for buf := payload; len(buf) > 0; {
		pl, n, err := wal.NextStreamFrame(buf)
		if err != nil { // ErrShortFrame included: a truncated body is malformed
			return fmt.Errorf("indep: binary batch: %w", err)
		}
		rec, err := wal.DecodeRecord(pl)
		if err != nil {
			return fmt.Errorf("indep: binary batch: %w", err)
		}
		buf = buf[n:]
		for _, b := range rec.Interns {
			if prev, dup := names[b.Value]; dup && prev != b.Name {
				return fmt.Errorf("indep: binary batch rebinds id %d (%q, then %q)",
					int64(b.Value), prev, b.Name)
			}
			names[b.Value] = b.Name
			bind(b.Value, b.Name)
		}
		for _, o := range rec.Ops {
			if o.Rel < 0 || o.Rel >= len(arity) {
				return fmt.Errorf("indep: binary batch addresses relation %d (schema has %d)",
					o.Rel, len(arity))
			}
			if len(o.Tuple) != arity[o.Rel] {
				return fmt.Errorf("indep: binary batch: %s tuple has %d values, want %d",
					s.Name(o.Rel), len(o.Tuple), arity[o.Rel])
			}
			for _, v := range o.Tuple {
				if _, ok := names[v]; !ok {
					return fmt.Errorf("indep: binary batch references unbound value id %d", int64(v))
				}
			}
			if err := op(o.Rel, o.Tuple, o.Delete); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeBinBatch validates a binary batch payload and returns its operations
// in frame order, client-local value ids remapped by re-interning their
// bound names into the store's dictionary. A malformed payload is reported
// before the caller has anything to apply.
func (cs *ConcurrentStore) decodeBinBatch(payload []byte) ([]engine.Op, error) {
	remap := make(map[relation.Value]relation.Value)
	var ops []engine.Op
	err := binBatchOps(cs.schema.s, payload,
		func(v relation.Value, name string) { remap[v] = cs.eng.Dict().Value(name) },
		func(rel int, tuple []relation.Value, del bool) error {
			t := make(relation.Tuple, len(tuple))
			for j, v := range tuple {
				t[j] = remap[v]
			}
			ops = append(ops, engine.Op{Scheme: rel, Tuple: t, Delete: del})
			return nil
		})
	return ops, err
}

// ApplyBinBatch decodes a binary batch (a BinBatchEncoder payload) and
// applies it as one atomic commit: one payload is one lock acquisition, one
// version bump — a reader sees all of it or none of it — and, on a durable
// store, one write-ahead-log append under one fsync. All inserts are
// admitted first, together: either every row is admitted or the state is
// unchanged, deletes included, and the first violation is returned. Then
// the deletes are applied (a delete never fails; an absent tuple is a
// no-op). The return value is the number of operations applied. The decode
// path shares the WAL's frame and record parsers and never touches
// encoding/json. Client-local value ids are remapped by re-interning their
// bound names; a tuple referencing an unbound id, an unknown relation, or a
// wrong arity is malformed (not a rejection), and a malformed payload is
// detected before anything is applied.
func (cs *ConcurrentStore) ApplyBinBatch(ctx context.Context, payload []byte) (int, error) {
	ctx, sp := obs.StartSpan(ctx, "store.batchbin")
	if sp.Recording() {
		sp.SetInt("bytes", int64(len(payload)))
	}
	defer sp.End()
	ops, err := cs.decodeBinBatch(payload)
	if err != nil {
		return 0, err
	}
	if _, err := cs.eng.Apply(ctx, ops); err != nil {
		return 0, err
	}
	return len(ops), nil
}

// BinOp is one decoded operation of a binary batch payload — the
// router-facing view of the wire format, with values resolved back to names
// so a cluster tier can split a client batch and re-encode each operation
// for the shard that owns it.
type BinOp struct {
	Rel    string
	Delete bool
	Row    map[string]string
}

// DecodeBinBatch decodes a binary batch payload into its operations in
// frame order without applying anything. Validation matches ApplyBinBatch:
// checksummed frames, no conflicting rebinds, known relations, exact
// arities, every referenced id bound. This is how a cluster router takes a
// batch apart before forwarding the pieces.
func (s *Schema) DecodeBinBatch(payload []byte) ([]BinOp, error) {
	bound := make(map[relation.Value]string)
	var ops []BinOp
	err := binBatchOps(s.s, payload,
		func(v relation.Value, name string) { bound[v] = name },
		func(rel int, tuple []relation.Value, del bool) error {
			attrs := s.s.Attrs(rel).Attrs()
			row := make(map[string]string, len(attrs))
			for j, a := range attrs {
				row[s.s.U.Name(a)] = bound[tuple[j]]
			}
			ops = append(ops, BinOp{Rel: s.s.Name(rel), Delete: del, Row: row})
			return nil
		})
	if err != nil {
		return nil, err
	}
	return ops, nil
}

// OpOutcome records one operation of a partially applied batch that was not
// applied. Index is the operation's 0-based position in payload frame order
// — the same order DecodeBinBatch returns — so a router can map a shard's
// outcomes back onto the client's original batch.
type OpOutcome struct {
	Index int    `json:"index"`
	Code  string `json:"code"` // "rejected"
	Error string `json:"error"`
}

// BatchReport summarizes a partially applied batch. Processed counts the
// operations attempted; it falls short of Ops only when a non-rejection
// error (durability, chase budget) aborted the run midway, in which case
// ApplyBinBatchPartial also returns that error. Rejections never stop the
// batch: the rejected operation is recorded and the rest proceed. Applied
// counts the operations not rejected; Changed counts those that changed
// the state — an insert of a present tuple or a delete of an absent one is
// applied but changes nothing.
type BatchReport struct {
	Ops       int         `json:"ops"`
	Processed int         `json:"processed"`
	Applied   int         `json:"applied"`
	Changed   int         `json:"changed"`
	Rejected  []OpOutcome `json:"rejected,omitempty"`
}

// ApplyBinBatchPartial decodes a binary batch and applies each operation
// individually in frame order, reporting per-operation outcomes instead of
// the all-or-nothing semantics of ApplyBinBatch. This is the mode a cluster
// router uses (POST /v1/batchbin?partial=1): a batch split across shards
// cannot be atomic anyway, and per-op outcomes are what reassembles into a
// single client-facing report. A malformed payload is detected up front and
// applies nothing. Re-applying an accepted insert or an applied delete is a
// no-op, so retrying a partially applied payload converges.
func (cs *ConcurrentStore) ApplyBinBatchPartial(ctx context.Context, payload []byte) (*BatchReport, error) {
	ctx, sp := obs.StartSpan(ctx, "store.batchbin.partial")
	if sp.Recording() {
		sp.SetInt("bytes", int64(len(payload)))
	}
	defer sp.End()
	ops, err := cs.decodeBinBatch(payload)
	if err != nil {
		return nil, err
	}
	rep := &BatchReport{Ops: len(ops)}
	for i := range ops {
		rep.Processed++
		switch changed, err := cs.eng.Apply(ctx, ops[i:i+1]); {
		case err == nil:
			rep.Applied++
			rep.Changed += changed
		case Rejected(err):
			rep.Rejected = append(rep.Rejected, OpOutcome{Index: i, Code: "rejected", Error: err.Error()})
		default:
			return rep, err
		}
	}
	return rep, nil
}

// RelationBinary renders the named relation's live tuples as a binary
// window result over the relation's own attributes, unsorted and unlimited —
// the raw fragment a cluster router gathers from each shard when a window
// must be evaluated away from the data and its Where does not touch the
// relation (GET /v1/cluster/rel). The tuples
// come from the store's query snapshot: a consistent cut at the current
// version, cut at most once between writes and shared with window queries.
// Decode with DecodeWindowBinary; the fragment's Total is its row count.
func (cs *ConcurrentStore) RelationBinary(rel string) ([]byte, error) {
	i := cs.schema.s.IndexOf(rel)
	if i < 0 {
		return nil, fmt.Errorf("indep: unknown relation %q", rel)
	}
	st := cs.eng.QuerySnapshot()
	inst := st.Insts[i]
	slots := inst.LiveRows()
	names := cs.schema.s.U.Names(cs.schema.s.Attrs(i))
	return encodeWindowBinary(st.Dict, names, len(slots), func(r, c int) relation.Value {
		return inst.At(slots[r], c)
	}, len(slots), cs.eng.Fast(), false), nil
}

// Binary window-result layout (everything before the trailing checksum is
// covered by it):
//
//	magic "IWIN1"
//	flags byte               bit0 fastPath, bit1 planCached
//	uvarint total            window rows before Limit
//	uvarint nattrs           then per attribute: uvarint len, name bytes
//	uvarint nbind            then per binding: varint value, uvarint len, name bytes
//	uvarint nrows            then nrows × nattrs varint values
//	uint32 LE                CRC32-Castagnoli of all preceding bytes
//
// Bindings cover exactly the values the rows reference, in first-appearance
// order, so the result is self-contained and its size tracks the distinct
// values, not the dictionary.
var winMagic = []byte("IWIN1")

var binCRC = crc32.MakeTable(crc32.Castagnoli)

// encodeWindowBinary renders a sorted, limited window as the binary result.
// at addresses the i-th emitted row's j-th column value.
func encodeWindowBinary(dict *relation.Dict, names []string, nrows int,
	at func(row, col int) relation.Value, total int, fast, cached bool) []byte {
	buf := append([]byte(nil), winMagic...)
	var flags byte
	if fast {
		flags |= 1
	}
	if cached {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(total))
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, nm := range names {
		buf = binary.AppendUvarint(buf, uint64(len(nm)))
		buf = append(buf, nm...)
	}
	seen := make(map[relation.Value]bool)
	vals := make([]relation.Value, 0, nrows)
	for i := 0; i < nrows; i++ {
		for j := range names {
			if v := at(i, j); !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		nm := dict.Name(v)
		buf = binary.AppendVarint(buf, int64(v))
		buf = binary.AppendUvarint(buf, uint64(len(nm)))
		buf = append(buf, nm...)
	}
	buf = binary.AppendUvarint(buf, uint64(nrows))
	for i := 0; i < nrows; i++ {
		for j := range names {
			buf = binary.AppendVarint(buf, int64(at(i, j)))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, binCRC))
}

// DecodeWindowBinary parses a binary window result (WindowResult.Bin, or the
// body of a /window response served as application/x-indep-bin) back into
// the JSON-equivalent shape: rendered rows, total, and the plan flags.
func DecodeWindowBinary(data []byte) (*WindowResult, error) {
	if len(data) < len(winMagic)+1+4 || string(data[:len(winMagic)]) != string(winMagic) {
		return nil, fmt.Errorf("indep: not a binary window result")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, binCRC) != sum {
		return nil, fmt.Errorf("indep: binary window result fails checksum")
	}
	b := body[len(winMagic):]
	flags := b[0]
	b = b[1:]
	readStr := func() (string, error) {
		n, rest, err := readWireUvarint(b)
		if err != nil {
			return "", err
		}
		if n > uint64(len(rest)) {
			return "", fmt.Errorf("indep: binary window result: string length %d exceeds payload", n)
		}
		b = rest[n:]
		return string(rest[:n]), nil
	}
	total, b2, err := readWireUvarint(b)
	if err != nil {
		return nil, err
	}
	b = b2
	nattrs, b2, err := readWireUvarint(b)
	if err != nil {
		return nil, err
	}
	b = b2
	if nattrs > uint64(len(b)) {
		return nil, fmt.Errorf("indep: binary window result: %d attributes exceed payload", nattrs)
	}
	out := &WindowResult{
		Attrs:      make([]string, nattrs),
		Total:      int(total),
		FastPath:   flags&1 != 0,
		PlanCached: flags&2 != 0,
	}
	for i := range out.Attrs {
		if out.Attrs[i], err = readStr(); err != nil {
			return nil, err
		}
	}
	nbind, b2, err := readWireUvarint(b)
	if err != nil {
		return nil, err
	}
	b = b2
	if nbind > uint64(len(b)) {
		return nil, fmt.Errorf("indep: binary window result: %d bindings exceed payload", nbind)
	}
	bind := make(map[relation.Value]string, nbind)
	for i := uint64(0); i < nbind; i++ {
		v, rest, err := readWireVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		nm, err2 := readStr()
		if err2 != nil {
			return nil, err2
		}
		bind[relation.Value(v)] = nm
	}
	nrows, b2, err := readWireUvarint(b)
	if err != nil {
		return nil, err
	}
	b = b2
	// Each row takes a byte per attribute, which bounds nrows by the
	// payload; a window always has attributes, so rows without any are
	// malformed rather than free.
	if nrows > 0 && (nattrs == 0 || nrows > uint64(len(b))/nattrs) {
		return nil, fmt.Errorf("indep: binary window result: %d rows exceed payload", nrows)
	}
	out.Rows = make([]map[string]string, nrows)
	for i := range out.Rows {
		row := make(map[string]string, nattrs)
		for _, a := range out.Attrs {
			v, rest, err := readWireVarint(b)
			if err != nil {
				return nil, err
			}
			b = rest
			nm, ok := bind[relation.Value(v)]
			if !ok {
				return nil, fmt.Errorf("indep: binary window result references unbound value %d", v)
			}
			row[a] = nm
		}
		out.Rows[i] = row
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("indep: binary window result: %d trailing bytes", len(b))
	}
	return out, nil
}

func readWireUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("indep: binary window result: truncated uvarint")
	}
	return v, b[n:], nil
}

func readWireVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("indep: binary window result: truncated varint")
	}
	return v, b[n:], nil
}
