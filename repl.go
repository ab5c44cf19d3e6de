package indep

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"indep/internal/relation"
	"indep/internal/wal"
)

// This file is the primary side of WAL-streaming replication. The paper's
// independence theorem is what makes replication almost free: admission is
// a purely local decision, so a replica replaying the primary's redo log
// through the same guards, one commit at a time (engine.Engine.Replay),
// converges to the primary's representative instance. The primary
// therefore needs no replication-specific bookkeeping at all: it serves
// (1) raw flushed WAL bytes by Position and (2) an encoded checkpoint of
// its current state for catch-up, both derived from machinery that already
// exists for durability.

// ReplChunk is one unit of the replication stream: raw segment bytes
// starting at Start, the position to request next, and the primary's
// flushed end at serve time (the follower's lag reference).
type ReplChunk struct {
	Start   wal.Position
	Data    []byte
	Next    wal.Position
	Flushed wal.Position
}

// ReplSource is what a Follower tails: a primary's log, reachable either
// in-process (DurableStore implements this) or over HTTP (HTTPReplSource).
// The fault-injection harness wraps a source to corrupt, truncate,
// duplicate, and drop chunks — the follower must converge regardless.
type ReplSource interface {
	// ReplSnapshot returns an encoded checkpoint of the source's current
	// state (wal.DecodeCheckpointBytes decodes it) and the log position to
	// tail from once it is installed.
	ReplSnapshot() (data []byte, tail wal.Position, err error)
	// ReplRead serves flushed log bytes from pos, up to max (0 means a
	// sensible default). It returns wal.ErrSegmentGone when the position
	// has been truncated away and the follower must re-sync.
	ReplRead(pos wal.Position, max int) (ReplChunk, error)
}

// ReplSnapshot implements ReplSource: it cuts a consistent snapshot with a
// log rotation at the cut (the same cut Checkpoint uses) and returns it
// encoded, without writing anything to disk or truncating the log. The
// returned tail position is the start of the segment opened at the cut:
// the snapshot plus the stream from tail reproduces every later state.
func (ds *DurableStore) ReplSnapshot() ([]byte, wal.Position, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return nil, wal.Position{}, fmt.Errorf("indep: store is closed")
	}
	var seq uint64
	st := ds.eng.SnapshotWith(func() { seq = ds.log.Rotate() })
	return wal.NewCheckpoint(seq, st).Encode(), wal.Position{Seq: seq}, nil
}

// ReplRead implements ReplSource by reading flushed bytes straight out of
// the log's segments. Only bytes the log has flushed (and fsynced, under
// the default sync mode) are served, so a follower can never apply a
// record the primary might lose in a crash.
func (ds *DurableStore) ReplRead(pos wal.Position, max int) (ReplChunk, error) {
	data, next, err := ds.log.ReadAt(pos, max)
	if err != nil {
		return ReplChunk{}, err
	}
	return ReplChunk{Start: pos, Data: data, Next: next, Flushed: ds.log.Flushed()}, nil
}

// ReplPosition returns the log's flushed end: the read-your-writes token a
// client holds after a durable write. A follower whose applied position has
// reached this value reflects every write acknowledged before the call.
func (ds *DurableStore) ReplPosition() wal.Position { return ds.log.Flushed() }

// DiffDatabasesByName compares two database states by value *names* rather
// than interned ids: it returns a description of every tuple present in
// one and not the other (nil means the visible states agree). Replication
// uses the stricter DiffDatabases — a follower replays the primary's exact
// bindings, so even the ids must match — but a cluster's gathered state
// interns values in whatever order fragments arrive, and only the named
// contents are contractually equal to a single node's.
func DiffDatabasesByName(a, b *Database) []string {
	diffs := diffTuples(a, b, renderTuple)
	sort.Strings(diffs)
	return diffs
}

// tupleKey renders a tuple as a comparable map key (raw values, fixed
// width), for the set diffs the oracle and the follower's re-sync share.
func tupleKey(t relation.Tuple) string {
	b := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return string(b)
}

// renderTuple renders a tuple with its value names, "(n1,n2,...)".
func renderTuple(db *Database, t relation.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = db.st.Dict.Name(v) // nil-safe: falls back to numerals
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// DiffDatabases is the divergence oracle: it compares two database states
// tuple-for-tuple and binding-for-binding and returns a human-readable
// description of every difference (nil means the states are identical).
// Replication's correctness claim is exactly "this returns nil between
// primary and any caught-up follower, after any fault schedule".
func DiffDatabases(a, b *Database) []string {
	diffs := diffTuples(a, b, func(_ *Database, t relation.Tuple) string { return tupleKey(t) })
	// Bindings must agree wherever both sides define a value; a value bound
	// on one side only is fine (bindings run ahead of the tuples that use
	// them) — tuple equality above already proves no *used* value differs.
	if a.st.Dict != nil && b.st.Dict != nil {
		an := make(map[relation.Value]string)
		a.st.Dict.Each(func(v relation.Value, name string) { an[v] = name })
		b.st.Dict.Each(func(v relation.Value, name string) {
			if prev, ok := an[v]; ok && prev != name {
				diffs = append(diffs, fmt.Sprintf("value %d named %q vs %q", int64(v), prev, name))
			}
		})
	}
	sort.Strings(diffs)
	return diffs
}

// diffTuples lists, relation by relation, every tuple of one state whose
// key is missing from the other, rendered with its names. The key decides
// what counts as the same tuple: raw value ids, or rendered names.
func diffTuples(a, b *Database, key func(*Database, relation.Tuple) string) []string {
	if len(a.st.Insts) != len(b.st.Insts) {
		return []string{fmt.Sprintf("relation counts differ: %d vs %d", len(a.st.Insts), len(b.st.Insts))}
	}
	keyed := func(db *Database, i int) map[string]relation.Tuple {
		m := make(map[string]relation.Tuple, db.st.Insts[i].Len())
		for _, t := range db.st.Insts[i].Rows() {
			m[key(db, t)] = t
		}
		return m
	}
	var diffs []string
	for i := range a.st.Insts {
		name := a.schema.s.Name(i)
		am, bm := keyed(a, i), keyed(b, i)
		for k, t := range am {
			if _, ok := bm[k]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s: %s only in first", name, renderTuple(a, t)))
			}
		}
		for k, t := range bm {
			if _, ok := am[k]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s: %s only in second", name, renderTuple(b, t)))
			}
		}
	}
	return diffs
}
