package indep

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"indep/internal/engine"
	"indep/internal/obs"
	"indep/internal/relation"
	"indep/internal/wal"
)

// ErrDurability wraps write errors that mean the in-memory admission
// succeeded but the write-ahead log could not make it durable (fsync
// failure, closed or failed log). It is a server-side fault, not a verdict
// on the row: callers should treat the store as failed and re-open it.
var ErrDurability = errors.New("indep: durability failure")

// DurabilityFailed reports whether an error is a durability failure.
func DurabilityFailed(err error) bool { return errors.Is(err, ErrDurability) }

// DurableStore is a ConcurrentStore backed by a write-ahead log and
// snapshot checkpoints: every acknowledged write survives a crash, and
// OpenDurableStore recovers the exact pre-crash state.
//
// Durability rides on the paper's main theorem. Because admission for an
// independent schema is a local O(|F_i|) decision, the redo log needs only
// the admitted (relation, tuple) pairs: recovery replays them through the
// same per-relation guards — concurrently correct, never re-running a
// global chase — and the recovered state passes the same local-consistency
// invariants as a live one. Non-independent schemas work too; their
// records replay through the serialized chase, which is the same honest
// cost they pay online.
//
// All ConcurrentStore methods are inherited and remain safe for concurrent
// use; writes return only after their log record is durable (per the
// configured sync mode).
type DurableStore struct {
	*ConcurrentStore
	dir    string
	log    *wal.Log
	unlock func() // releases the data-directory lock

	logger *slog.Logger  // nil disables structured commit/checkpoint logging
	slow   time.Duration // commits waiting at least this long are logged

	commitWait obs.Histogram // commit-to-durable wait, ns
	ckptDur    obs.Histogram // checkpoint wall time, ns
	ckptBytes  obs.Histogram // encoded checkpoint size
	ckptCount  obs.Counter   // checkpoints taken

	mu       sync.Mutex // serializes Checkpoint and Close
	closed   bool
	recovery RecoveryStats

	// jmu is a leaf lock serializing appendRecord's bindings: logged
	// advances and the record carrying the bindings it passes is appended
	// under one critical section, so log order is watermark order.
	jmu    sync.Mutex
	logged engine.Marks // dictionary bindings the log already holds
}

// DurableOptions tunes OpenDurableStore. The zero value is the safe
// default: fsync on every commit group, 16 MiB segments.
type DurableOptions struct {
	// NoFsync trades power-loss durability for speed: records are written
	// but never fsynced. Acknowledged writes still survive a process
	// crash.
	NoFsync bool
	// SegmentBytes overrides the segment rotation threshold.
	SegmentBytes int64
	// Logger, when set, receives structured records for recovery,
	// checkpoints, traced commits (the fsync ack carries the request's
	// trace ID), and slow commits.
	Logger *slog.Logger
	// SlowCommit logs commits whose durability wait meets the threshold
	// (0 disables). The same threshold drives the engine's slow-operation
	// log when the caller wires one (see ConcurrentStore.SetTelemetry).
	SlowCommit time.Duration
}

// RecoveryStats reports what recovery-on-open found. A skipped record was
// rejected as a whole, its ops then applied one by one (engine.Engine.Replay),
// or contradicts the dictionary or schema and applies nothing past that;
// replay goes on after either.
type RecoveryStats struct {
	CheckpointSeq    uint64        // 0 when no checkpoint was loaded
	CheckpointTuples int           // tuples restored from the checkpoint
	Segments         int           // log segments scanned
	Records          int           // records replayed, one per commit
	TruncatedBytes   int64         // torn-tail bytes removed from the final segment
	Skipped          int           // records skipped (see above)
	Duration         time.Duration // wall time from open to ready
}

// OpenDurableStore opens (or creates) a durable maintained database in
// dir. On open it recovers: the latest checkpoint is loaded and
// re-admitted through the engine, the write-ahead log after it is
// replayed, and a torn tail left by a crash is detected by CRC and
// truncated. Only then does the store accept writes, appending every
// commit to the log via a group-commit writer that coalesces concurrent
// fsyncs.
func (s *Schema) OpenDurableStore(dir string, opts DurableOptions) (*DurableStore, error) {
	openStart := time.Now()
	cs, err := s.OpenConcurrentStore()
	if err != nil {
		return nil, err
	}
	eng := cs.eng
	// Exclusive directory lock (released on Close or process death): two
	// live stores interleaving one WAL directory would fork its history.
	unlock, err := wal.LockDir(dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			unlock()
		}
	}()
	ds := &DurableStore{
		ConcurrentStore: cs,
		dir:             dir,
		unlock:          unlock,
		logger:          opts.Logger,
		slow:            opts.SlowCommit,
	}

	// Phase 1: checkpoint. Dictionary bindings restore to their exact
	// values; tuples re-admit through the guards (see readmit), so a
	// checkpoint that somehow encodes an inconsistent state is rejected
	// here rather than served.
	ck, err := wal.LatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	fromSeq := uint64(0)
	if ck != nil {
		if ck.NumSchemes() != s.s.Size() {
			return nil, fmt.Errorf("indep: checkpoint has %d relations, schema has %d", ck.NumSchemes(), s.s.Size())
		}
		for _, e := range ck.Dict {
			if err := eng.Dict().Restore(e.Value, e.Name); err != nil {
				return nil, fmt.Errorf("indep: corrupt checkpoint dictionary: %w", err)
			}
		}
		var ops []engine.Op
		for i := 0; i < ck.NumSchemes(); i++ {
			want := s.s.Attrs(i).Len()
			if ck.RowCount(i) > 0 && ck.Arity(i) != want {
				return nil, fmt.Errorf("indep: checkpoint tuple arity %d in %s (want %d)", ck.Arity(i), s.s.Name(i), want)
			}
			for r := 0; r < ck.RowCount(i); r++ {
				ops = append(ops, engine.Op{Scheme: i, Tuple: ck.AppendRow(make(relation.Tuple, 0, want), i, r)})
			}
		}
		if err := readmit(eng, ops); err != nil {
			return nil, fmt.Errorf("indep: checkpoint state fails admission: %w", err)
		}
		fromSeq = ck.Seq
		ds.recovery.CheckpointSeq = ck.Seq
		ds.recovery.CheckpointTuples = len(ops)
	}

	// Phase 2: log replay. Each record is one commit and replays as one
	// (engine.Engine.Replay). The checkpoint cut is exact, so recovery
	// replays no overlap: a record it skips (RecoveryStats) means the
	// surrounding bytes lied. With no commit hook set yet, every error
	// Replay returns is about the record, so it too is a skip.
	rs, err := wal.Replay(dir, fromSeq, func(rec wal.Record) error {
		skipped, err := eng.Replay(context.Background(), rec)
		if err != nil {
			return fmt.Errorf("%w: %v", wal.ErrSkip, err)
		}
		if skipped {
			return wal.ErrSkip
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.recovery.Segments = rs.Segments
	ds.recovery.Records = rs.Records
	ds.recovery.TruncatedBytes = rs.TruncatedBytes
	ds.recovery.Skipped = rs.Skipped

	// Phase 3: go live. The log opens a fresh segment, every binding
	// recovery restored is already durable, and the engine hook journals
	// every commit under the relation locks (so per-relation log order
	// equals admission order).
	walOpts := wal.Options{SegmentBytes: opts.SegmentBytes}
	if opts.NoFsync {
		walOpts.Sync = wal.SyncNever
	}
	log, err := wal.OpenLog(dir, walOpts)
	if err != nil {
		return nil, err
	}
	ds.log = log
	ds.logged = eng.Dict().Marks()
	eng.SetCommitHook(func(c engine.Commit) func() error {
		// On a traced request c.Span is the engine-operation span; the WAL
		// append and the fsync ack become its children, so the trace shows
		// where a durable write's time went. All span calls are nil-safe,
		// so untraced commits pay nothing here.
		asp := c.Span.StartChild("wal.append")
		t := ds.appendRecord(c.Ops)
		if asp.Recording() {
			asp.SetInt("wal_bytes", int64(t.Bytes()))
		}
		asp.End()
		trace, nops := c.Trace, len(c.Ops)
		fsp := c.Span.StartChild("wal.fsync")
		start := time.Now()
		return func() error {
			err := t.Wait()
			d := time.Since(start)
			if fsp.Recording() {
				fsp.SetInt("wait_ns", d.Nanoseconds())
				if err != nil {
					fsp.SetAttr("error", err.Error())
				}
			}
			fsp.End()
			ds.commitWait.Observe(int64(d))
			ds.noteCommit(trace, nops, d, err)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrDurability, err)
			}
			return nil
		}
	})
	ds.recovery.Duration = time.Since(openStart)
	if opts.Logger != nil {
		opts.Logger.Info("store recovered",
			"dir", dir,
			"checkpoint_seq", ds.recovery.CheckpointSeq,
			"checkpoint_tuples", ds.recovery.CheckpointTuples,
			"segments", ds.recovery.Segments,
			"records", ds.recovery.Records,
			"truncated_bytes", ds.recovery.TruncatedBytes,
			"skipped", ds.recovery.Skipped,
			"duration", ds.recovery.Duration)
	}
	ok = true
	return ds, nil
}

// appendRecord is the one writer into the log: it builds the record of one
// commit and appends it. The record carries, ahead of ops, every dictionary
// binding above the logged watermark, and the watermark advances past them
// under the same lock the append happens in. That keeps the log's invariant:
// in log order, every value id a record references is bound in that record
// or an earlier one, and each dictionary shard's bindings appear in
// ascending order with no gap — Dict.Restore's precondition. (A commit's
// values were interned before it reached the engine, so they are at or
// below the watermark by the time its record is built.) With no ops it
// appends only the pending bindings, and nothing at all when there are none
// (nil ticket). A record with no binding is encoded and appended after the
// lock is released, so commits build their frames in parallel: the records
// binding its ids are already queued.
func (ds *DurableStore) appendRecord(ops []engine.Op) *wal.Ticket {
	rec := wal.Record{Ops: make([]wal.TupleOp, len(ops))}
	for i, op := range ops {
		rec.Ops[i] = wal.TupleOp{Rel: op.Scheme, Tuple: op.Tuple, Delete: op.Delete}
	}
	ds.jmu.Lock()
	rec.Interns = ds.eng.Dict().AppendNew(&ds.logged, nil)
	if len(rec.Interns) > 0 {
		defer ds.jmu.Unlock()
		return ds.log.Append(rec)
	}
	ds.jmu.Unlock()
	if len(rec.Ops) == 0 {
		return nil
	}
	return ds.log.Append(rec)
}

// readmit installs a checkpointed state — recovery's whole checkpoint, or a
// follower re-sync's deletes and then inserts against its live state —
// through the engine in MaxBatchOps chunks. Each chunk of inserts yields a
// trial state that is a subset of the checkpointed (consistent) state, and
// SAT is closed under subsets, so chunking cannot turn a good checkpoint
// away.
func readmit(eng *engine.Engine, ops []engine.Op) error {
	for len(ops) > 0 {
		k := min(len(ops), engine.MaxBatchOps)
		if _, err := eng.Apply(context.Background(), ops[:k]); err != nil {
			return err
		}
		ops = ops[k:]
	}
	return nil
}

// noteCommit emits the fsync-ack log line for traced commits (the end of a
// request's trace: the same ID the HTTP access log printed at ingress) and
// a warning for commits whose durability wait met the slow threshold.
func (ds *DurableStore) noteCommit(trace string, ops int, d time.Duration, err error) {
	if ds.logger == nil {
		return
	}
	if ds.slow > 0 && d >= ds.slow {
		args := []any{"ops", ops, "wait", d}
		if trace != "" {
			args = append(args, "trace", trace)
		}
		if err != nil {
			args = append(args, "err", err)
		}
		ds.logger.Warn("slow commit", args...)
		return
	}
	if trace == "" {
		return
	}
	if err != nil {
		ds.logger.Error("commit failed", "trace", trace, "ops", ops, "wait", d, "err", err)
		return
	}
	ds.logger.Debug("commit durable", "trace", trace, "ops", ops, "wait", d)
}

// RegisterMetrics files the store's metric families with the registry: the
// engine's (per-relation counters and latency, query and chase telemetry),
// the write-ahead log's (fsync and write latency, group batching, segment
// depth), and the durability layer's own (commit wait, checkpoints,
// recovery).
func (ds *DurableStore) RegisterMetrics(r *obs.Registry) {
	ds.ConcurrentStore.RegisterMetrics(r)
	ds.log.RegisterMetrics(r)
	r.RegisterHistogram("indep_durable_commit_wait_seconds",
		"commit-to-durable wait (group-commit queue plus fsync)", 1e-9, &ds.commitWait)
	r.CounterFunc("indep_checkpoints_total",
		"checkpoints written", ds.ckptCount.Value)
	r.RegisterHistogram("indep_checkpoint_duration_seconds",
		"checkpoint wall time: snapshot, encode, fsync, truncate", 1e-9, &ds.ckptDur)
	r.RegisterHistogram("indep_checkpoint_bytes",
		"encoded checkpoint size", 1, &ds.ckptBytes)
	r.GaugeFunc("indep_recovery_replayed_records",
		"log records (commits) replayed by the last recovery", func() float64 { return float64(ds.recovery.Records) })
	r.GaugeFunc("indep_recovery_skipped_records",
		"records the last recovery skipped: rejected as a whole, or contradicting the dictionary or schema", func() float64 { return float64(ds.recovery.Skipped) })
	r.GaugeFunc("indep_recovery_duration_seconds",
		"wall time of the last recovery", ds.recovery.Duration.Seconds)
}

// Recovery reports what recovery-on-open found (zero stats for a fresh
// directory).
func (ds *DurableStore) Recovery() RecoveryStats { return ds.recovery }

// WAL returns a point-in-time view of the write-ahead log: segment depth,
// bytes of replay debt, append and fsync counts.
func (ds *DurableStore) WAL() wal.LogStats { return ds.log.Stats() }

// WALLatency returns snapshots of the write-ahead log's write-latency,
// fsync-latency, and records-per-commit-group histograms — the same data
// the registry exposes, for callers (like indepd's /stats) that want
// quantiles as JSON rather than an exposition scrape.
func (ds *DurableStore) WALLatency() (write, fsync, groupRecords HistSnapshot) {
	return ds.log.LatencyStats()
}

// CommitWaitStats returns a snapshot of the commit-to-durable wait
// histogram: how long Insert/InsertBatch/Delete callers blocked between
// the in-memory commit and the fsync ack.
func (ds *DurableStore) CommitWaitStats() HistSnapshot {
	return ds.commitWait.Snapshot()
}

// Checkpoint serializes a consistent snapshot of the store (state and
// dictionary) next to the log and truncates the segments it covers. The
// cut is exact: the log rotates at the snapshot point while every state
// lock is held, so the checkpoint plus the remaining segments always
// reproduce the current state. Concurrent writes proceed during the disk
// write; only the in-memory snapshot blocks them briefly.
func (ds *DurableStore) Checkpoint() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return fmt.Errorf("indep: store is closed")
	}
	start := time.Now()
	var seq uint64
	st := ds.eng.SnapshotWith(func() { seq = ds.log.Rotate() })
	size, err := wal.WriteCheckpoint(ds.dir, wal.NewCheckpoint(seq, st))
	if err != nil {
		return err
	}
	err = ds.log.RemoveBefore(seq)
	d := time.Since(start)
	ds.ckptCount.Inc()
	ds.ckptDur.Observe(int64(d))
	ds.ckptBytes.Observe(size)
	if ds.logger != nil {
		ds.logger.Info("checkpoint written", "seq", seq, "bytes", size, "duration", d)
	}
	return err
}

// Close flushes and closes the log. Writes after Close fail; the in-memory
// store remains readable.
func (ds *DurableStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return nil
	}
	ds.closed = true
	err := ds.log.Close()
	ds.unlock()
	return err
}
