package indep

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"

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
// itself writes for a commit (wal.AppendRecordFrame) — so the wire format
// inherits the log's encoder, record walker (wal.WalkRecord) and corruption
// detection instead of defining a second serialization. Values travel as
// client-local integer ids bound by the record's bindings, so a batch is
// self-contained and ids never leak between requests: a node resolves each
// id to its name's value in its own dictionary, and a router splitting a
// batch (SplitBinBatch) forwards each shard its ops under the client's ids
// with the bindings they use. A payload of several frames decodes frame by
// frame, bindings before ops. A frame of the retired per-operation record
// kinds is malformed (wal.ErrLegacyRecord).

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

// binScan checks a binary batch payload and numbers its distinct client ids
// in binding order: slot k is the k-th id bound. walk makes every check —
// frame checksums, each record (wal.WalkRecord), no conflicting rebind,
// relation indices, arities and bound ids — and hands each op over with its
// values rewritten from client ids to slots, so callers keep their own
// per-id tables dense by construction. An id is found through a table
// indexed by id when it lies in [0, 2·bindings], bindings being the count
// the records read so far declare, and through a map otherwise: a hostile
// id such as 2^40 never sizes the table, while the ids of a router's
// sub-batch, a subset of its client's, mostly stay in it.
type binScan struct {
	s        *schema.Schema
	arity    []int
	maxArity int
	ids      []relation.Value         // slot → client id
	names    []byte                   // the slots' names, concatenated
	ends     []int                    // slot k's name is names[ends[k]:ends[k+1]]
	dense    []int32                  // client id → 1 + slot, 0 if unbound; dense[len:cap] stays zero
	sparse   map[relation.Value]int32 // the same for ids bound outside dense
	vals     []relation.Value         // the walker's scratch
	declared int                      // bindings the records read so far declare
}

func newBinScan(s *schema.Schema) *binScan {
	b := &binScan{s: s, arity: make([]int, s.Size()), ends: []int{0}}
	for i := range b.arity {
		b.arity[i] = s.Attrs(i).Len()
		b.maxArity = max(b.maxArity, b.arity[i])
	}
	b.vals = make([]relation.Value, b.maxArity)
	return b
}

// name returns slot k's name.
func (b *binScan) name(k int32) []byte { return b.names[b.ends[k]:b.ends[k+1]] }

// slot returns the slot of a client id, or -1 when the id is unbound.
func (b *binScan) slot(id relation.Value) int32 {
	if id >= 0 && id < relation.Value(len(b.dense)) && b.dense[id] != 0 {
		return b.dense[id] - 1
	}
	if k, ok := b.sparse[id]; ok { // an id bound before dense grew past it
		return k - 1
	}
	return -1
}

// bind records one binding, refusing a rebind of an id to another name.
func (b *binScan) bind(id relation.Value, name []byte) error {
	if k := b.slot(id); k >= 0 {
		if prev := b.name(k); !bytes.Equal(prev, name) {
			return fmt.Errorf("indep: binary batch rebinds id %d (%q, then %q)", int64(id), prev, name)
		}
		return nil
	}
	if len(b.ids) == math.MaxInt32 { // slots are int32s
		return fmt.Errorf("indep: binary batch binds more than %d ids", math.MaxInt32)
	}
	b.ids = append(b.ids, id)
	b.names = append(b.names, name...)
	b.ends = append(b.ends, len(b.names))
	k := int32(len(b.ids))
	switch {
	case id >= 0 && id < relation.Value(len(b.dense)):
	case id >= 0 && id <= relation.Value(2*b.declared):
		b.dense = slices.Grow(b.dense, int(id)+1-len(b.dense))[:id+1]
	default:
		if b.sparse == nil {
			b.sparse = make(map[relation.Value]int32)
		}
		b.sparse[id] = k
		return nil
	}
	b.dense[id] = k
	return nil
}

// walk checks payload frame by frame and calls op once per tuple operation
// in frame order — each record's inserts, then its deletes — with the op's
// values as slots, valid until op returns. reserve is told each record's op
// count before its first op. Any error is a malformed payload, reported
// before op has been called for the offending operation; an error from op
// is returned as is.
func (b *binScan) walk(payload []byte, reserve func(ops int),
	op func(rel int, del bool, slots []relation.Value) error) error {
	var failed error // an error the walk's own checks or op returned
	v := wal.RecordVisitor{
		Bindings: func(n int) {
			b.declared += n
			b.ids = slices.Grow(b.ids, n)
			b.ends = slices.Grow(b.ends, n)
			b.dense = slices.Grow(b.dense, 2*b.declared+1-len(b.dense))
		},
		Binding: func(id relation.Value, name []byte) error {
			failed = b.bind(id, name)
			return failed
		},
		Ops: reserve,
		Op: func(rel int, del bool, vals []relation.Value) error {
			if rel < 0 || rel >= len(b.arity) {
				failed = fmt.Errorf("indep: binary batch addresses relation %d (schema has %d)", rel, len(b.arity))
				return failed
			}
			if len(vals) != b.arity[rel] {
				failed = fmt.Errorf("indep: binary batch: %s tuple has %d values, want %d",
					b.s.Name(rel), len(vals), b.arity[rel])
				return failed
			}
			for j, id := range vals {
				k := b.slot(id)
				if k < 0 {
					failed = fmt.Errorf("indep: binary batch references unbound value id %d", int64(id))
					return failed
				}
				vals[j] = relation.Value(k)
			}
			failed = op(rel, del, vals)
			return failed
		},
	}
	for buf := payload; len(buf) > 0; {
		pl, n, err := wal.NextStreamFrame(buf)
		if err != nil { // ErrShortFrame included: a truncated body is malformed
			return fmt.Errorf("indep: binary batch: %w", err)
		}
		buf = buf[n:]
		b.names = slices.Grow(b.names, len(pl)) // a frame's names fit in the frame
		if b.vals, err = wal.WalkRecord(pl, b.vals, v); err != nil {
			if failed != nil {
				return failed
			}
			return fmt.Errorf("indep: binary batch: %w", err)
		}
	}
	return nil
}

// decodeBinBatch validates a binary batch payload and returns its operations
// in frame order, each client id resolved to the store's value for its
// name. A name an insert uses is interned, once, copied out of the payload;
// a name only deletes use is looked up, as ConcurrentStore.Delete does, and
// one the store never bound resolves to unboundValue. Names resolve only
// once the whole payload has checked out, so a malformed payload touches
// neither the dictionary nor anything else. The ops' tuples share one
// arena.
func (cs *ConcurrentStore) decodeBinBatch(payload []byte) ([]engine.Op, error) {
	b := newBinScan(cs.schema.s)
	var ops []engine.Op
	var arena []relation.Value
	err := b.walk(payload, func(n int) {
		ops = slices.Grow(ops, n)
		arena = slices.Grow(arena, n*b.maxArity)
	}, func(rel int, del bool, slots []relation.Value) error {
		start := len(arena)
		arena = append(arena, slots...)
		ops = append(ops, engine.Op{Scheme: rel, Tuple: arena[start:len(arena):len(arena)], Delete: del})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// vals maps slot → store value, once a first pass marked (1) every slot
	// an insert uses. Inserts' names are bound first, so a delete-only slot
	// whose name an insert binds under another id still finds it.
	dict := cs.eng.Dict()
	vals := make([]relation.Value, len(b.ids))
	for _, op := range ops {
		if !op.Delete {
			for _, k := range op.Tuple {
				vals[k] = 1
			}
		}
	}
	for k, v := range vals {
		if v == 1 {
			vals[k] = dict.Value(string(b.name(int32(k))))
		} else {
			vals[k] = unboundValue
		}
	}
	for k, v := range vals {
		if v == unboundValue {
			if found, ok := dict.Lookup(string(b.name(int32(k)))); ok {
				vals[k] = found
			}
		}
	}
	for _, op := range ops {
		for j, k := range op.Tuple {
			op.Tuple[j] = vals[k]
		}
	}
	return ops, nil
}

// unboundValue is a delete's value for a name the store never bound. No
// dictionary value is negative, so a tuple holding it is never present and
// its delete changes nothing.
const unboundValue relation.Value = -1

// ApplyBinBatch decodes a binary batch (a BinBatchEncoder payload) and
// applies it as one atomic commit: one payload is one lock acquisition, one
// version bump — a reader sees all of it or none of it — and, on a durable
// store, one write-ahead-log append under one fsync. All inserts are
// admitted first, together: either every row is admitted or the state is
// unchanged, deletes included, and the first violation is returned. Then
// the deletes are applied (a delete never fails; an absent tuple is a
// no-op). The return value is the number of operations applied. The decode
// path shares the WAL's frame and record parsers and never touches
// encoding/json. Client-local value ids resolve to the store's values for
// their bound names; a tuple referencing an unbound id, an unknown relation,
// or a wrong arity is malformed (not a rejection), and a malformed payload
// is detected before anything is applied.
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

// BinOp is one decoded operation of a binary batch payload, with values
// resolved back to names (see DecodeBinBatch).
type BinOp struct {
	Rel    string
	Delete bool
	Row    map[string]string
}

// DecodeBinBatch decodes a binary batch payload into its operations in
// frame order without applying anything, each row keyed by attribute name.
// Validation matches ApplyBinBatch: checksummed frames, no conflicting
// rebinds, known relations, exact arities, every referenced id bound. It is
// for tools that want a batch's rows; a router splits a batch with
// SplitBinBatch, which builds no rows.
func (s *Schema) DecodeBinBatch(payload []byte) ([]BinOp, error) {
	b := newBinScan(s.s)
	var ops []BinOp
	var names []string // slot → name, converted on first use
	err := b.walk(payload, func(n int) { ops = slices.Grow(ops, n) },
		func(rel int, del bool, slots []relation.Value) error {
			for len(names) < len(b.ids) {
				names = append(names, string(b.name(int32(len(names)))))
			}
			attrs := s.s.Attrs(rel).Attrs()
			row := make(map[string]string, len(attrs))
			for j, a := range attrs {
				row[s.s.U.Name(a)] = names[slots[j]]
			}
			ops = append(ops, BinOp{Rel: s.s.Name(rel), Delete: del, Row: row})
			return nil
		})
	if err != nil {
		return nil, err
	}
	return ops, nil
}

// SplitBinBatch takes a binary batch apart by destination without applying
// anything, the way a cluster router splits a client's batch across shards.
// It validates exactly as ApplyBinBatch does, and asks route for each op's
// destination in [0, n), passing the op's relation index and name, a lookup
// of the name bound to the op's j-th value; the name aliases the payload and
// is valid until route returns. It returns one self-contained payload per
// destination, nil for a destination no op went to: that destination's ops
// under their client ids, and the bindings those ops use, each once. Payloads
// are framed by wal.AppendRecordFrame, as a BinBatchEncoder frames them.
// index[d] maps subs[d]'s ops, in the order ApplyBinBatchPartial reports
// them (inserts first, then deletes), to their positions in the client
// payload's frame order.
func (s *Schema) SplitBinBatch(payload []byte, n int,
	route func(rel int, name func(j int) []byte) int) (subs [][]byte, index [][]int, err error) {
	type splitOp struct {
		rel, dest  int
		del        bool
		start, end int // the op's slots in arena
	}
	b := newBinScan(s.s)
	var ops []splitOp
	var arena, cur []relation.Value
	perDest := make([]int, n) // ops per destination
	name := func(j int) []byte { return b.name(int32(cur[j])) }
	err = b.walk(payload, func(k int) {
		ops = slices.Grow(ops, k)
		arena = slices.Grow(arena, k*b.maxArity)
	}, func(rel int, del bool, slots []relation.Value) error {
		cur = slots
		d := route(rel, name)
		if d < 0 || d >= n {
			return fmt.Errorf("indep: split routes a %s op to destination %d of %d", s.s.Name(rel), d, n)
		}
		perDest[d]++
		ops = append(ops, splitOp{rel: rel, dest: d, del: del, start: len(arena), end: len(arena) + len(slots)})
		arena = append(arena, slots...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// names holds every slot's name as one string, so bindings cut from
	// it allocate nothing. bindBytes bounds the encoding of every binding a
	// destination can use, and the client's ops took at most
	// len(payload)-bindBytes.
	names := string(b.names)
	bindBytes := 0
	for k, id := range b.ids {
		size := b.ends[k+1] - b.ends[k]
		bindBytes += varintLen(int64(id)) + uvarintLen(uint64(size)) + size
	}
	used, widest := 0, 0
	for _, c := range perDest {
		used, widest = used+min(c, 1), max(widest, c)
	}
	out := make([]byte, 0, len(payload)+max(used-1, 0)*bindBytes+used*recordHeaderBytes)

	// One destination at a time: its inserts, then its deletes, each in
	// client order — the order the shard reports them in — under client
	// ids, with each slot they use bound once.
	subs, index = make([][]byte, n), make([][]int, n)
	idx := make([]int, 0, len(ops))
	stamp := make([]int32, len(b.ids)) // 1 + the last destination that bound the slot
	dops := make([]wal.TupleOp, 0, widest)
	interns := make([]wal.Binding, 0, len(b.ids))
	for d := range n {
		if perDest[d] == 0 {
			continue
		}
		first := len(idx)
		dops, interns = dops[:0], interns[:0]
		for _, del := range [2]bool{false, true} {
			for i, o := range ops {
				if o.dest != d || o.del != del {
					continue
				}
				t := arena[o.start:o.end:o.end]
				for j, k := range t {
					if stamp[k] != int32(d+1) {
						stamp[k] = int32(d + 1)
						interns = append(interns, wal.Binding{Value: b.ids[k], Name: names[b.ends[k]:b.ends[k+1]]})
					}
					t[j] = b.ids[k]
				}
				dops = append(dops, wal.TupleOp{Rel: o.rel, Tuple: t, Delete: del})
				idx = append(idx, i)
			}
		}
		start := len(out)
		out = wal.AppendRecordFrame(out, wal.Record{Interns: interns, Ops: dops})
		subs[d], index[d] = out[start:len(out):len(out)], idx[first:len(idx):len(idx)]
	}
	return subs, index, nil
}

// recordHeaderBytes bounds a record frame's bytes besides its bindings and
// ops: the frame header, the kind, and three counts.
const recordHeaderBytes = 8 + 1 + 3*binary.MaxVarintLen64

// OpOutcome records one operation of a partially applied batch that was not
// applied. Index is the operation's 0-based position in payload frame order
// — frame by frame, each record's inserts, then its deletes — so a router
// can map a shard's outcomes back onto the client's original batch (see
// SplitBinBatch).
type OpOutcome struct {
	Index int    `json:"index"`
	Code  string `json:"code"` // "rejected"
	Error string `json:"error"`
}

// BatchReport summarizes a partially applied batch. Processed counts the
// operations attempted; it falls short of Ops only when a non-rejection
// error in the walk (a chase budget) stopped it midway, in which case
// ApplyBinBatchPartial also returns that error. A durability error covers
// the whole commit: it is returned with a report of every operation, none
// of which is known to be durable. Rejections never stop the batch: the
// rejected operation is recorded and the rest proceed. Applied
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

// ApplyBinBatchPartial decodes a binary batch and applies it in frame
// order with per-operation outcomes instead of the all-or-nothing semantics
// of ApplyBinBatch: a rejected insert is reported and the rest proceed. The
// payload is still one commit, cut only where an accepted insert follows an
// accepted delete (engine.Engine.ApplyPartial), which a BinBatchEncoder
// payload never has. This is the mode a cluster router uses (POST
// /v1/batchbin?partial=1): a batch split across shards cannot be atomic
// anyway, and per-op outcomes are what reassembles into a single
// client-facing report. A malformed payload is detected up front and
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
	r, err := cs.eng.ApplyPartial(ctx, ops)
	rep := &BatchReport{Ops: len(ops), Processed: r.Done, Applied: r.Done - len(r.Rejected), Changed: len(r.Changed)}
	if err != nil && r.Done < len(ops) {
		rep.Processed++ // the operation the error stopped the walk at
	}
	for _, rj := range r.Rejected {
		rep.Rejected = append(rep.Rejected, OpOutcome{Index: rj.Index, Code: "rejected", Error: rj.Err.Error()})
	}
	return rep, err
}

// RelationBinary renders the named relation's live tuples as a binary
// window result over the relation's own attributes, in slot order and
// unlimited — the raw fragment GET /v1/cluster/rel serves for diffing whole
// shard states. The tuples come from the store's query snapshot: a
// consistent cut at the current version, cut at most once between writes
// and shared with window queries. Decode with DecodeWindowBinary; the
// fragment's Total is its row count.
func (cs *ConcurrentStore) RelationBinary(rel string) ([]byte, error) {
	i := cs.schema.s.IndexOf(rel)
	if i < 0 {
		return nil, fmt.Errorf("indep: unknown relation %q", rel)
	}
	st := cs.eng.QuerySnapshot()
	inst := st.Insts[i]
	t := rankInstance(st.Dict, inst, inst.LiveRows())
	return t.encode(cs.schema.s.U.Names(cs.schema.s.Attrs(i)), t.n, cs.eng.Fast(), false), nil
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
// Bindings cover exactly the values the rows reference, so the result is
// self-contained and its size tracks the distinct values, not the
// dictionary. A node and a router write them in ascending bytewise name
// order under ids 1..nbind, so a value is its name's rank plus one and the
// bytes are canonical: they depend only on the attributes, the rows, the
// total and the flags, and one window's answer is byte-identical whether a
// node answered it or a router forwarded, merged or gathered it. A reader
// accepts bindings in any order under any distinct ids (ParseWindowAnswer
// ranks them), as nodes that bound values in first-appearance order under
// dictionary ids sent them.
var winMagic = []byte("IWIN1")

var binCRC = crc32.MakeTable(crc32.Castagnoli)

// encode renders a ranked answer, in its row order, as the binary window
// result: name rank r is bound as value r+1. The buffer is sized up front,
// so encoding allocates once at any answer size.
func (t *rankedRows) encode(attrs []string, total int, fast, cached bool) []byte {
	size := len(winMagic) + 1 + uvarintLen(uint64(total)) + uvarintLen(uint64(len(attrs))) +
		uvarintLen(uint64(len(t.names))) + uvarintLen(uint64(t.n)) + 4
	for _, a := range attrs {
		size += uvarintLen(uint64(len(a))) + len(a)
	}
	for _, nm := range t.names {
		size += uvarintLen(uint64(len(nm))) + len(nm)
	}
	size += (len(t.names) + len(t.cells)) * varintLen(int64(len(t.names))) // the widest value
	buf := appendWindowHeader(make([]byte, 0, size), attrs, total, fast, cached)
	buf = binary.AppendUvarint(buf, uint64(len(t.names)))
	for r, nm := range t.names {
		buf = binary.AppendVarint(buf, int64(r)+1)
		buf = binary.AppendUvarint(buf, uint64(len(nm)))
		buf = append(buf, nm...)
	}
	buf = binary.AppendUvarint(buf, uint64(t.n))
	for _, r := range t.cells {
		buf = binary.AppendVarint(buf, int64(r)+1)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, binCRC))
}

// appendWindowHeader appends a binary window result's magic, flags, total
// and attribute names to buf.
func appendWindowHeader(buf []byte, names []string, total int, fast, cached bool) []byte {
	buf = append(buf, winMagic...)
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
	return buf
}

// DecodeWindowBinary parses a binary window result (WindowResult.Bin, or the
// body of a /window response served as application/x-indep-bin) back into
// the JSON-equivalent shape: rendered rows, total, and the plan flags.
func DecodeWindowBinary(data []byte) (*WindowResult, error) {
	a, err := parseWindow(data)
	if err != nil {
		return nil, err
	}
	out := a.Result()
	out.Bin = nil
	out.Rows = make([]map[string]string, a.n)
	for i := range out.Rows {
		row := make(map[string]string, len(a.attrs))
		for j, v := range a.row(i) {
			row[a.attrs[j]] = a.names[v]
		}
		out.Rows[i] = row
	}
	return out, nil
}

// A WindowAnswer is a binary window result parsed positionally, the shape a
// router merges owners' answers in: the header, and the rows coded by the
// bound names. Every name is a substring of one copy of the payload, so
// parsing allocates the same handful of times at any size and no row is a
// map. Parsed by ParseWindowAnswer, the rows are coded by name rank (see
// rankedRows); parsed for DecodeWindowBinary, each cell indexes the
// bindings in payload order.
type WindowAnswer struct {
	bin    []byte
	attrs  []string
	total  int
	fast   bool
	cached bool
	rankedRows
}

// ParseWindowAnswer checks that data is a well-formed binary window answer —
// checksum, structure, every referenced value bound, no value bound twice,
// and rows strictly ascending in window order — and returns it parsed,
// coded by name rank. A router parses each owner's answer before forwarding
// or merging it, so a corrupt reply never reaches a client. The bindings
// may come in any order under any distinct ids: ranking them costs one
// pass over the names when they arrive in ascending order, as this
// package writes them, and one sort otherwise. Raw fragments
// (RelationBinary) are in slot order; decode those with DecodeWindowBinary.
func ParseWindowAnswer(data []byte) (*WindowAnswer, error) {
	a, err := parseWindow(data)
	if err != nil {
		return nil, err
	}
	a.rank()
	for i := 1; i < a.n; i++ {
		if slices.Compare(a.row(i-1), a.row(i)) >= 0 {
			return nil, fmt.Errorf("indep: binary window answer: row %d is not after row %d", i, i-1)
		}
	}
	return a, nil
}

// rank re-codes a's cells from binding indexes to name ranks, its names
// becoming the distinct bound names in ascending order. Bindings already in
// ascending order are their own ranks; otherwise one sort ranks them, and a
// name bound under two ids takes one rank.
func (a *WindowAnswer) rank() {
	names := a.names
	if ascending(names) {
		return
	}
	ints := make([]int32, 2*len(names))
	byName, rank := ints[:len(names)], ints[len(names):]
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(x, y int32) int { return strings.Compare(names[x], names[y]) })
	a.names = make([]string, 0, len(names))
	for _, i := range byName {
		if k := len(a.names); k == 0 || a.names[k-1] != names[i] {
			a.names = append(a.names, names[i])
		}
		rank[i] = int32(len(a.names) - 1)
	}
	for p, i := range a.cells {
		a.cells[p] = rank[i]
	}
}

// ascending reports whether names are strictly ascending.
func ascending(names []string) bool {
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			return false
		}
	}
	return true
}

// Result returns the answer as a WindowResult: the header fields and Bin,
// the bytes it was parsed from; Rows is nil.
func (a *WindowAnswer) Result() *WindowResult {
	return &WindowResult{Attrs: a.attrs, Total: a.total, FastPath: a.fast, PlanCached: a.cached, Bin: a.bin}
}

// winReader walks the body of a binary window result: b is the body, s the
// same bytes as one string that names are sliced from, and err the first
// failure, after which every read returns zero.
type winReader struct {
	b   []byte
	s   string
	off int
	err error
}

func (r *winReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("indep: binary window result: "+format, args...)
	}
}

func (r *winReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.off += n
	return v
}

// varint reads a zigzag-encoded varint, binary.Varint's encoding.
func (r *winReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *winReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string length %d exceeds payload", n)
		return ""
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

// count reads a count of items that each take at least per bytes, bounding
// it by what is left of the payload.
func (r *winReader) count(what string, per uint64) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off)/per {
		r.fail("%d %s exceed payload", n, what)
		return 0
	}
	return int(n)
}

// parseWindow checks a binary window result's checksum and structure and
// resolves every row value to its binding.
func parseWindow(data []byte) (*WindowAnswer, error) {
	if len(data) < len(winMagic)+1+4 || string(data[:len(winMagic)]) != string(winMagic) {
		return nil, fmt.Errorf("indep: not a binary window result")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, binCRC) != sum {
		return nil, fmt.Errorf("indep: binary window result fails checksum")
	}
	body = body[len(winMagic):]
	r := &winReader{b: body, s: string(body), off: 1}
	a := &WindowAnswer{bin: data, fast: body[0]&1 != 0, cached: body[0]&2 != 0}
	a.total = int(r.uvarint())
	a.attrs = make([]string, r.count("attributes", 1))
	for i := range a.attrs {
		a.attrs[i] = r.str()
	}
	nbind := r.count("bindings", 2)
	ids := make([]int64, nbind)
	a.names = make([]string, nbind)
	dense := true // the ids are 1..nbind in order, as this package writes them
	for i := range ids {
		ids[i] = r.varint()
		a.names[i] = r.str()
		dense = dense && ids[i] == int64(i)+1
	}
	// Dense ids are their own binding indexes plus one. Otherwise bound is
	// an open-addressing hash of value id → 1 + binding index, 0 for an
	// empty slot, at most half full. The hash is seeded per process, so a
	// payload cannot pick ids that all collide.
	var bound []int32
	width := bits.Len(uint(2*nbind) | 1)
	slotOf := func(v int64) int {
		i := int(mixID(v) >> (64 - width))
		for bound[i] != 0 && ids[bound[i]-1] != v {
			i = (i + 1) & (len(bound) - 1)
		}
		return i
	}
	if !dense {
		bound = make([]int32, 1<<width)
		for k, v := range ids {
			i := slotOf(v)
			if bound[i] != 0 {
				r.fail("value %d bound twice", v)
				break
			}
			bound[i] = int32(k + 1)
		}
	}
	// Each row takes a byte per attribute, which bounds the row count by
	// the payload; a window always has attributes, so rows without any are
	// malformed rather than free.
	per := uint64(max(len(a.attrs), 1))
	a.width = len(a.attrs)
	if a.n = r.count("rows", per); a.n > 0 && a.width == 0 {
		r.fail("%d rows without attributes", a.n)
	}
	a.cells = make([]int32, a.n*a.width)
	for k := range a.cells {
		v := r.varint()
		if r.err != nil {
			break
		}
		var b int32
		switch {
		case !dense:
			b = bound[slotOf(v)]
		case v >= 1 && v <= int64(nbind):
			b = int32(v)
		}
		if b == 0 {
			r.fail("unbound value %d", v)
			break
		}
		a.cells[k] = b - 1
	}
	if r.err == nil && r.off != len(body) {
		r.fail("%d trailing bytes", len(body)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return a, nil
}

// idSeed seeds mixID.
var idSeed = rand.Uint64()

// mixID hashes a value id: the seeded id through the splitmix64 finalizer.
func mixID(v int64) uint64 {
	z := uint64(v) ^ idSeed
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// MergeWindowAnswers combines owners' answers to one window query into the
// answer of one node holding all their rows, encoded as a binary window
// result (Bin, with the header fields set; Rows is nil). Each answer is
// already in window order, so the merge is a k-way merge of positional
// rows, compared on name ranks over the answers' names together:
//   - Rows come out in window order and are cut to limit (when positive).
//     Disjoint answers were limited by their owners already: each of the
//     union's first limit rows is among the first limit rows of the answer
//     holding it.
//   - Total is the sum of the answers' Totals when they are disjoint.
//     Otherwise equal rows, adjacent after the merge, are kept once and
//     Total counts the distinct rows, so such answers must be unlimited.
//   - FastPath and PlanCached hold only if they hold for every answer.
//
// The names the merged rows use are bound once each, in ascending order
// under ids 1..n, so the bytes are those a node holding the rows writes.
// Answers over different attributes do not merge.
func MergeWindowAnswers(parts []*WindowAnswer, limit int, disjoint bool) (*WindowResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("indep: no window answers to merge")
	}
	attrs := parts[0].attrs
	res := &WindowResult{Attrs: attrs, FastPath: true, PlanCached: true}
	rows := 0
	for i, p := range parts {
		if !slices.Equal(p.attrs, attrs) {
			return nil, fmt.Errorf("indep: window answer %d is over %v, answer 0 over %v", i, p.attrs, attrs)
		}
		res.Total += p.total
		res.FastPath = res.FastPath && p.fast
		res.PlanCached = res.PlanCached && p.cached
		rows += p.n
	}
	if limit > 0 {
		rows = min(rows, limit)
	}
	w := len(attrs)
	names, cells := mergeRanks(parts)

	// The k-way merge over cells: heads[i] is the offset of parts[i]'s next
	// row, ends[i] the end of its rows.
	ints := make([]int, 2*len(parts))
	heads, ends := ints[:len(parts)], ints[len(parts):]
	for i, p := range parts {
		if i > 0 {
			heads[i] = ends[i-1]
		}
		ends[i] = heads[i] + len(p.cells)
	}
	row := func(off int) []int32 { return cells[off : off+w] }
	order := make([]int, 0, rows) // the merged rows' offsets in cells
	last, distinct := 0, 0
	for {
		best := -1
		for i := range parts {
			if heads[i] < ends[i] && (best < 0 || slices.Compare(row(heads[i]), row(heads[best])) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		cur := heads[best]
		heads[best] += w
		if !disjoint && distinct > 0 && slices.Equal(row(last), row(cur)) {
			continue
		}
		last = cur
		distinct++
		if len(order) < rows {
			order = append(order, cur)
		} else if disjoint {
			break
		}
	}
	if !disjoint {
		res.Total = distinct
	}

	// Bind the names the merged rows use: id[g] is 1 + the rank of name g
	// among them, 0 while no row uses it.
	id := make([]int32, len(names))
	used := 0
	for _, o := range order {
		for _, g := range row(o) {
			if id[g] == 0 {
				id[g] = 1
				used++
			}
		}
	}
	out := rankedRows{width: w, n: len(order), names: make([]string, 0, used), cells: make([]int32, 0, len(order)*w)}
	for g, nm := range names {
		if id[g] != 0 {
			out.names = append(out.names, nm)
			id[g] = int32(len(out.names))
		}
	}
	for _, o := range order {
		for _, g := range row(o) {
			out.cells = append(out.cells, id[g]-1)
		}
	}
	res.Bin = out.encode(attrs, res.Total, res.FastPath, res.PlanCached)
	return res, nil
}

// mergeRanks ranks the answers' names together: names merges their
// ascending lists, a name several answers bind appearing once, and cells
// holds every answer's cells, answer after answer, re-coded to ranks in
// names.
func mergeRanks(parts []*WindowAnswer) (names []string, cells []int32) {
	nnames, ncells := 0, 0
	for _, p := range parts {
		nnames += len(p.names)
		ncells += len(p.cells)
	}
	names = make([]string, 0, nnames)
	ints := make([]int32, nnames+ncells+len(parts))
	// rank[base+r] is the merged rank of name r of the answer whose names
	// start at base; next[i] is parts[i]'s next name.
	rank, next := ints[:nnames], ints[nnames+ncells:]
	cells = ints[nnames : nnames+ncells]
	for {
		best := -1
		for i, p := range parts {
			if int(next[i]) < len(p.names) && (best < 0 || p.names[next[i]] < parts[best].names[next[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		nm := parts[best].names[next[best]]
		base := 0
		for i, p := range parts {
			if k := int(next[i]); k < len(p.names) && p.names[k] == nm {
				rank[base+k] = int32(len(names))
				next[i]++
			}
			base += len(p.names)
		}
		names = append(names, nm)
	}
	base, off := 0, 0
	for _, p := range parts {
		for k, r := range p.cells {
			cells[off+k] = rank[base+int(r)]
		}
		base += len(p.names)
		off += len(p.cells)
	}
	return names, cells
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of x's varint encoding.
func varintLen(x int64) int { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

// SetPlanCached sets the result's plan-cache flag everywhere it is carried:
// PlanCached, Explain's PlanCached and Bin's flags byte, whose checksum it
// recomputes. A router that compiles a window's plan before evaluating it
// over gathered rows reports its own compile's hit through it.
func (res *WindowResult) SetPlanCached(cached bool) {
	res.PlanCached = cached
	if res.Explain != nil {
		res.Explain.PlanCached = cached
	}
	if n := len(res.Bin) - 4; n > len(winMagic) {
		res.Bin[len(winMagic)] &^= 2
		if cached {
			res.Bin[len(winMagic)] |= 2
		}
		binary.LittleEndian.PutUint32(res.Bin[n:], crc32.Checksum(res.Bin[:n], binCRC))
	}
}

// EncodeWindowBinary renders a result's Rows, in their order, as the binary
// window encoding with its Attrs, Total and plan flags: the inverse of
// DecodeWindowBinary, for a result that arrived rendered. Its bindings are
// the canonical ones a node writes.
func EncodeWindowBinary(res *WindowResult) []byte {
	var d relation.Dict
	n := len(res.Rows)
	vals := make([]relation.Value, n*len(res.Attrs))
	cols := make([][]relation.Value, len(res.Attrs))
	for j, a := range res.Attrs {
		cols[j] = vals[j*n : (j+1)*n]
		for i, row := range res.Rows {
			cols[j][i] = d.Value(row[a])
		}
	}
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = int32(i)
	}
	t := rankRows(&d, cols, slots)
	return t.encode(res.Attrs, res.Total, res.FastPath, res.PlanCached)
}
