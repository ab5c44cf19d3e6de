package indep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"indep/internal/obs"
	"indep/internal/wal"
)

// A Follower is a replica: a full DurableStore of its own that, instead of
// accepting writes, tails a primary's WAL through a ReplSource and replays
// every record through engine.Engine.Replay, the routine recovery uses. A
// record is one primary commit and replays as one local commit, so readers
// (snapshots, window queries) see whole payloads, exactly as on a primary,
// and the independence theorem guarantees the replayed state converges to
// the primary's representative instance.
//
// Every applied record re-journals into the follower's own log (the
// engine's commit hook is live during Replay), so a follower restart
// recovers locally and resumes the stream from its persisted position. The
// position is persisted lazily — safe because re-applying any contiguous
// suffix of the log converges (see engine.Engine.Replay).
type Follower struct {
	*DurableStore
	src  ReplSource
	opts FollowerOptions

	fmu       sync.Mutex
	fcond     *sync.Cond
	applied   wal.Position // primary bytes before this are reflected locally
	primary   wal.Position // primary's flushed end, last observed
	persisted wal.Position // applied position REPLPOS last recorded
	healthy   bool
	lastErr   error
	stopping  bool

	appliedRecs   obs.Counter
	skippedRecs   obs.Counter
	resyncs       obs.Counter
	corruptChunks obs.Counter
	droppedChunks obs.Counter
	reconnects    obs.Counter
	applyDur      obs.Histogram // per-record (per primary commit) apply latency, ns

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	abort    bool // skip the final position persist (simulated kill -9)
}

// FollowerOptions tunes OpenFollower. The zero value fsyncs locally and
// polls the source every 25ms when caught up.
type FollowerOptions struct {
	// NoFsync, SegmentBytes, and Logger configure the follower's local
	// durable store, same as DurableOptions.
	NoFsync      bool
	SegmentBytes int64
	Logger       *slog.Logger
	// PollInterval is the delay between source reads when caught up or
	// disconnected (default 25ms), and the first wait after a failed
	// re-sync; each consecutive failure doubles that wait, up to
	// maxResyncWait.
	PollInterval time.Duration
	// ChunkBytes caps one ReplRead (default 256 KiB).
	ChunkBytes int
}

// replposFile records "v1 <primary position> <local flushed position>": the
// primary position the local state reflects, plus the local log extent that
// proves it. If the local log no longer covers the second position on
// reopen (a crash lost bytes), the first cannot be trusted and the follower
// re-syncs from a snapshot.
const replposFile = "REPLPOS"

// corruptRetryLimit is how many times the follower re-fetches the same
// position after corrupt chunks before giving up and re-syncing.
const corruptRetryLimit = 5

// OpenFollower opens (or re-opens) a replica in dir tailing src. Local
// recovery runs first — the follower's own log reproduces its last applied
// state — then the tail loop resumes from the persisted stream position,
// or bootstraps from a primary snapshot when there is none to trust.
func (s *Schema) OpenFollower(dir string, src ReplSource, opts FollowerOptions) (*Follower, error) {
	if opts.PollInterval <= 0 {
		opts.PollInterval = 25 * time.Millisecond
	}
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = 256 << 10
	}
	ds, err := s.OpenDurableStore(dir, DurableOptions{
		NoFsync:      opts.NoFsync,
		SegmentBytes: opts.SegmentBytes,
		Logger:       opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	f := &Follower{
		DurableStore: ds,
		src:          src,
		opts:         opts,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	f.fcond = sync.NewCond(&f.fmu)
	f.applied = loadReplPos(dir, ds.recovery.CheckpointSeq)
	f.persisted = f.applied
	go f.run()
	return f, nil
}

// loadReplPos reads the persisted stream position and validates it against
// the local log: the position is trusted only if every local byte it was
// persisted after still exists (the segment file is long enough, or the
// local checkpoint recovery loaded, cut at ckptSeq, superseded it).
// Anything else — missing file, parse error, truncated log — yields the
// zero position, which makes the tail loop bootstrap from a snapshot.
func loadReplPos(dir string, ckptSeq uint64) wal.Position {
	b, err := os.ReadFile(filepath.Join(dir, replposFile))
	if err != nil {
		return wal.Position{}
	}
	fields := strings.Fields(string(b))
	if len(fields) != 3 || fields[0] != "v1" {
		return wal.Position{}
	}
	pos, err1 := wal.ParsePosition(fields[1])
	local, err2 := wal.ParsePosition(fields[2])
	if err1 != nil || err2 != nil {
		return wal.Position{}
	}
	if local.IsZero() {
		return pos
	}
	if fi, err := os.Stat(filepath.Join(dir, wal.SegmentFile(local.Seq))); err == nil {
		if fi.Size() >= local.Off {
			return pos
		}
		return wal.Position{}
	}
	// Segment gone: fine if a local checkpoint covers it (its records are
	// folded into the checkpoint), otherwise the log lost history.
	if ckptSeq > local.Seq {
		return pos
	}
	return wal.Position{}
}

// Applied returns the primary log position the follower has fully applied:
// its read-your-writes watermark.
func (f *Follower) Applied() wal.Position {
	f.fmu.Lock()
	defer f.fmu.Unlock()
	return f.applied
}

// WaitFor blocks until the follower's applied position reaches pos (true),
// or the timeout elapses or the follower stops (false). Handlers use it to
// honor read-your-writes tokens with a bounded wait before telling the
// client to retry.
func (f *Follower) WaitFor(pos wal.Position, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		f.fmu.Lock()
		f.fcond.Broadcast()
		f.fmu.Unlock()
	})
	defer timer.Stop()
	f.fmu.Lock()
	defer f.fmu.Unlock()
	for f.applied.Less(pos) {
		if f.stopping || !time.Now().Before(deadline) {
			return false
		}
		f.fcond.Wait()
	}
	return true
}

// FollowerStats is a point-in-time view of the replication stream. Records
// are the primary's log records, one per primary commit, and each replays
// as one local commit: AppliedRecords counts those applied whole,
// SkippedRecords those the engine rejected as a whole and then applied
// partially, keeping every op the local state admits (the overlap case of
// engine.Engine.Replay).
type FollowerStats struct {
	Applied        wal.Position `json:"applied"`
	PrimaryFlushed wal.Position `json:"primary_flushed"`
	LagBytes       int64        `json:"lag_bytes"`    // byte lag when in the primary's active segment, else 0
	LagSegments    int64        `json:"lag_segments"` // whole segments behind the primary
	Healthy        bool         `json:"healthy"`      // last source read succeeded
	LastError      string       `json:"last_error,omitempty"`
	AppliedRecords uint64       `json:"applied_records"`
	SkippedRecords uint64       `json:"skipped_records"` // rejected as a whole, then applied partially (overlap skips)
	Resyncs        uint64       `json:"resyncs"`
	CorruptChunks  uint64       `json:"corrupt_chunks"`
	DroppedChunks  uint64       `json:"dropped_chunks"` // duplicates and out-of-order deliveries
	Reconnects     uint64       `json:"reconnects"`
}

// ReplStats returns the follower's current stream statistics.
func (f *Follower) ReplStats() FollowerStats {
	f.fmu.Lock()
	st := FollowerStats{
		Applied:        f.applied,
		PrimaryFlushed: f.primary,
		Healthy:        f.healthy,
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	if f.primary.Seq >= st.Applied.Seq {
		st.LagSegments = int64(f.primary.Seq - st.Applied.Seq)
	}
	if f.primary.Seq == st.Applied.Seq && f.primary.Off > st.Applied.Off {
		st.LagBytes = f.primary.Off - st.Applied.Off
	}
	f.fmu.Unlock()
	st.AppliedRecords = f.appliedRecs.Value()
	st.SkippedRecords = f.skippedRecs.Value()
	st.Resyncs = f.resyncs.Value()
	st.CorruptChunks = f.corruptChunks.Value()
	st.DroppedChunks = f.droppedChunks.Value()
	st.Reconnects = f.reconnects.Value()
	return st
}

// RegisterMetrics files the follower's metric families — the underlying
// store's plus the replication stream's counters, lag gauges, and apply
// latency.
func (f *Follower) RegisterMetrics(r *obs.Registry) {
	f.DurableStore.RegisterMetrics(r)
	r.CounterFunc("indep_repl_applied_records_total",
		"stream records, one per primary commit, applied to the local state as one commit", f.appliedRecs.Value)
	r.CounterFunc("indep_repl_skipped_records_total",
		"stream records rejected as a whole on replay and applied partially as one commit (overlap skips)", f.skippedRecs.Value)
	r.CounterFunc("indep_repl_resyncs_total",
		"snapshot re-syncs (bootstrap, truncated stream, persistent corruption)", f.resyncs.Value)
	r.CounterFunc("indep_repl_corrupt_chunks_total",
		"stream chunks dropped for checksum or framing corruption", f.corruptChunks.Value)
	r.CounterFunc("indep_repl_dropped_chunks_total",
		"stream chunks dropped as duplicates or out-of-order deliveries", f.droppedChunks.Value)
	r.CounterFunc("indep_repl_reconnects_total",
		"source read failures followed by reconnect attempts", f.reconnects.Value)
	r.GaugeFunc("indep_repl_lag_bytes",
		"bytes behind the primary's flushed end (within its active segment)",
		func() float64 { return float64(f.ReplStats().LagBytes) })
	r.GaugeFunc("indep_repl_lag_segments",
		"whole segments behind the primary", func() float64 { return float64(f.ReplStats().LagSegments) })
	r.GaugeFunc("indep_repl_healthy",
		"1 when the last source read succeeded", func() float64 {
			if f.ReplStats().Healthy {
				return 1
			}
			return 0
		})
	r.RegisterHistogram("indep_repl_apply_duration_seconds",
		"apply latency per stream record (one primary commit) on the follower", 1e-9, &f.applyDur)
}

// Close stops the tail loop, persists the stream position, and closes the
// local store.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	f.fmu.Lock()
	f.stopping = true
	f.fcond.Broadcast()
	f.fmu.Unlock()
	return f.DurableStore.Close()
}

// Abort is Close without the final position persist: the follower stops
// where it stands, leaving REPLPOS at its last lazy write — the on-disk
// picture a kill -9 leaves behind. The fault harness uses it (optionally
// truncating the local log afterwards) to prove restart convergence.
func (f *Follower) Abort() error {
	f.fmu.Lock()
	f.abort = true
	f.fmu.Unlock()
	return f.Close()
}

// setApplied publishes a new applied position and wakes WaitFor callers.
func (f *Follower) setApplied(pos wal.Position) {
	f.fmu.Lock()
	f.applied = pos
	f.fcond.Broadcast()
	f.fmu.Unlock()
}

// noteRead records the outcome of one source read.
func (f *Follower) noteRead(flushed wal.Position, err error) {
	f.fmu.Lock()
	if err == nil {
		f.healthy = true
		f.lastErr = nil
		if f.primary.Less(flushed) {
			f.primary = flushed
		}
	} else {
		f.healthy = false
		f.lastErr = err
	}
	f.fmu.Unlock()
}

// persistPos durably records the applied position: local log first (the
// records proving the position must hit the file before the position
// claims them), then REPLPOS via write-and-rename. A record that changed
// nothing locally leaves its restored bindings unjournaled, so any pending
// bindings are logged first: REPLPOS never passes a binding the local log
// lacks, or a restart would resume the stream above a dictionary gap.
func (f *Follower) persistPos() error {
	pos := f.Applied()
	f.fmu.Lock()
	done := pos == f.persisted
	f.fmu.Unlock()
	if done {
		return nil
	}
	f.appendRecord(nil)
	if err := f.log.Sync(); err != nil {
		return err
	}
	local := f.log.Flushed()
	tmp := filepath.Join(f.dir, replposFile+".tmp")
	data := fmt.Sprintf("v1 %s %s\n", pos, local)
	if err := os.WriteFile(tmp, []byte(data), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(f.dir, replposFile)); err != nil {
		return err
	}
	f.fmu.Lock()
	f.persisted = pos
	f.fmu.Unlock()
	return nil
}

// applyRecord replays one stream record into the local store through
// engine.Engine.Replay with the commit hook live, so the record re-journals
// into the local log as one commit, its bindings included. A record
// rejected as a whole is the overlap skip recovery also takes. Only
// infrastructure failures (local durability, malformed records) are errors.
func (f *Follower) applyRecord(rec wal.Record) error {
	start := time.Now()
	defer func() { f.applyDur.Observe(int64(time.Since(start))) }()
	skipped, err := f.eng.Replay(context.Background(), rec)
	if err != nil {
		return fmt.Errorf("indep: stream record: %w", err)
	}
	if skipped {
		f.skippedRecs.Inc()
	} else {
		f.appliedRecs.Inc()
	}
	return nil
}

// resync bootstraps or repairs the follower from a primary snapshot,
// installed as a diff against the local state by installCheckpoint, the
// routine recovery installs its checkpoint through. The local state is
// never wiped: every step re-journals locally, and because the local state
// after the deletions is a subset of the (consistent) snapshot state, the
// inserts cannot be rejected. Returns the position to tail from.
func (f *Follower) resync() (wal.Position, error) {
	f.resyncs.Inc()
	data, tail, err := f.src.ReplSnapshot()
	if err != nil {
		return wal.Position{}, err
	}
	ck, err := wal.DecodeCheckpointBytes(data)
	if err != nil {
		return wal.Position{}, err
	}
	tuples, err := installCheckpoint(f.eng, ck)
	if err != nil {
		return wal.Position{}, err
	}
	f.setApplied(tail)
	if err := f.persistPos(); err != nil {
		return wal.Position{}, err
	}
	if f.opts.Logger != nil {
		f.opts.Logger.Info("follower resynced", "tail", tail.String(), "tuples", tuples, "dict", len(ck.Dict))
	}
	return tail, nil
}

// sleep waits d or until the follower is stopped.
func (f *Follower) sleep(d time.Duration) {
	select {
	case <-f.stop:
	case <-time.After(d):
	}
}

// maxResyncWait caps the wait between consecutive failed re-syncs, which
// doubles from the poll interval: every attempt cuts a snapshot on the
// primary, and each cut rotates its log.
const maxResyncWait = 5 * time.Second

// persistEvery is how many applied records may accumulate before the tail
// loop persists its position even while busy. Idle moments also persist.
const persistEvery = 4096

// run is the tail loop: read a chunk, validate its position against the
// cursor (trimming duplicated prefixes, dropping gaps and reorders),
// buffer it, parse complete frames, and apply them. The cursor always
// equals applied+len(buf), so corruption recovery is just "drop the
// buffer, re-read from applied". See ReadAt for the segment-advance and
// ErrSegmentGone protocol.
func (f *Follower) run() {
	defer close(f.done)
	cursor := f.Applied()
	var buf []byte // unapplied bytes: primary range [applied, cursor)
	var corruptAt wal.Position
	corruptStreak := 0
	sincePersist := 0
	resyncWait := f.opts.PollInterval

	corrupted := func() {
		f.corruptChunks.Inc()
		applied := f.Applied()
		if applied == corruptAt {
			corruptStreak++
		} else {
			corruptAt, corruptStreak = applied, 1
		}
		buf = nil
		cursor = applied
		if corruptStreak >= corruptRetryLimit {
			cursor = wal.Position{} // give up on the stream: snapshot re-sync
			corruptStreak = 0
		}
	}

	for {
		select {
		case <-f.stop:
			f.fmu.Lock()
			abort := f.abort
			f.fmu.Unlock()
			if !abort {
				if err := f.persistPos(); err != nil && f.opts.Logger != nil {
					f.opts.Logger.Warn("follower position persist failed", "err", err)
				}
			}
			return
		default:
		}

		if cursor.IsZero() {
			tail, err := f.resync()
			f.noteRead(tail, err)
			if err != nil {
				f.reconnects.Inc()
				f.sleep(resyncWait) // a stop is drained at the top of the loop
				if resyncWait < maxResyncWait {
					resyncWait = min(2*resyncWait, maxResyncWait)
				}
				continue
			}
			resyncWait = f.opts.PollInterval
			cursor, buf = tail, nil
			sincePersist = 0
			continue
		}

		chunk, err := f.src.ReplRead(cursor, f.opts.ChunkBytes)
		f.noteRead(chunk.Flushed, err)
		if err != nil {
			if errors.Is(err, wal.ErrSegmentGone) {
				cursor, buf = wal.Position{}, nil // re-sync
				continue
			}
			f.reconnects.Inc()
			f.sleep(f.opts.PollInterval)
			continue
		}

		data := chunk.Data
		if len(data) == 0 {
			if chunk.Next.Seq == cursor.Seq+1 && chunk.Next.Off == 0 {
				// Sealed segment fully consumed. Leftover buffered bytes
				// would mean a frame spans segments — corruption.
				if len(buf) != 0 {
					corrupted()
					continue
				}
				cursor = chunk.Next
				f.setApplied(cursor)
				continue
			}
			// At the primary's flushed end. Flush groups are whole frames,
			// so an incomplete frame buffered here can never complete — a
			// corrupted length field inflated it past the real boundary.
			// Without this check the follower would wait forever for bytes
			// the primary will never write.
			if len(buf) != 0 && !chunk.Flushed.IsZero() && !cursor.Less(chunk.Flushed) {
				corrupted()
				continue
			}
			// Caught up: persist the position and idle one interval.
			if err := f.persistPos(); err == nil {
				sincePersist = 0
			}
			f.sleep(f.opts.PollInterval)
			continue
		}

		switch {
		case chunk.Start == cursor:
		case chunk.Start.Seq == cursor.Seq && chunk.Start.Off < cursor.Off &&
			chunk.Start.Off+int64(len(data)) > cursor.Off:
			data = data[cursor.Off-chunk.Start.Off:] // duplicated prefix: trim
		default:
			f.droppedChunks.Inc() // pure duplicate, gap, or reorder: re-request
			continue
		}
		buf = append(buf, data...)
		cursor = wal.Position{Seq: cursor.Seq, Off: cursor.Off + int64(len(data))}

		// Parse and apply every complete frame in the buffer. applied
		// trails cursor by exactly len(buf).
		applied := wal.Position{Seq: cursor.Seq, Off: cursor.Off - int64(len(buf))}
		bad := false
		for {
			if applied.Off == 0 {
				if len(buf) < wal.SegmentHeaderBytes {
					break
				}
				if err := wal.CheckSegmentHeader(buf, applied.Seq); err != nil {
					bad = true
					break
				}
				buf = buf[wal.SegmentHeaderBytes:]
				applied.Off = wal.SegmentHeaderBytes
				continue
			}
			payload, n, err := wal.NextStreamFrame(buf)
			if errors.Is(err, wal.ErrShortFrame) {
				break
			}
			if err != nil {
				bad = true
				break
			}
			rec, err := wal.DecodeRecord(payload)
			if err != nil {
				bad = true
				break
			}
			if err := f.applyRecord(rec); err != nil {
				f.noteRead(wal.Position{}, err)
				if f.opts.Logger != nil {
					f.opts.Logger.Error("follower apply failed", "err", err)
				}
				return // local store is no longer trustworthy
			}
			buf = buf[n:]
			applied.Off += int64(n)
			sincePersist++
		}
		if bad {
			f.setApplied(applied) // the frames before the bad one are applied
			corrupted()
			continue
		}
		corruptStreak = 0
		f.setApplied(applied)
		if sincePersist >= persistEvery {
			if err := f.persistPos(); err == nil {
				sincePersist = 0
			}
		}
	}
}

// Replication stream HTTP headers, shared by the daemon's /v1/repl
// handlers and HTTPReplSource.
const (
	ReplHeaderStart   = "X-Indep-Repl-Start"
	ReplHeaderNext    = "X-Indep-Repl-Next"
	ReplHeaderFlushed = "X-Indep-Repl-Flushed"
	ReplHeaderTail    = "X-Indep-Repl-Tail"
)

// HTTPReplSource tails a primary daemon over its /v1/repl endpoints.
type HTTPReplSource struct {
	// Base is the primary's base URL, e.g. "http://primary:8080".
	Base string
	// Client overrides http.DefaultClient.
	Client *http.Client
	// Wait asks the primary to long-poll when the follower is caught up,
	// trading one idle round-trip per poll interval for stream latency.
	Wait bool
}

func (h *HTTPReplSource) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

// ReplSnapshot implements ReplSource over GET /v1/repl/snapshot.
func (h *HTTPReplSource) ReplSnapshot() ([]byte, wal.Position, error) {
	resp, err := h.client().Get(h.Base + "/v1/repl/snapshot")
	if err != nil {
		return nil, wal.Position{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, wal.Position{}, fmt.Errorf("indep: snapshot fetch: %s", resp.Status)
	}
	tail, err := wal.ParsePosition(resp.Header.Get(ReplHeaderTail))
	if err != nil {
		return nil, wal.Position{}, err
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, wal.Position{}, err
	}
	return data, tail, nil
}

// ReplRead implements ReplSource over GET /v1/repl/wal. A 410 Gone maps
// back to wal.ErrSegmentGone, so the follower's re-sync logic is transport
// independent.
func (h *HTTPReplSource) ReplRead(pos wal.Position, max int) (ReplChunk, error) {
	q := url.Values{"pos": {pos.String()}, "max": {fmt.Sprint(max)}}
	if h.Wait {
		q.Set("wait", "1")
	}
	resp, err := h.client().Get(h.Base + "/v1/repl/wal?" + q.Encode())
	if err != nil {
		return ReplChunk{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return ReplChunk{}, wal.ErrSegmentGone
	default:
		return ReplChunk{}, fmt.Errorf("indep: stream read: %s", resp.Status)
	}
	var chunk ReplChunk
	if chunk.Start, err = wal.ParsePosition(resp.Header.Get(ReplHeaderStart)); err != nil {
		return ReplChunk{}, err
	}
	if chunk.Next, err = wal.ParsePosition(resp.Header.Get(ReplHeaderNext)); err != nil {
		return ReplChunk{}, err
	}
	if chunk.Flushed, err = wal.ParsePosition(resp.Header.Get(ReplHeaderFlushed)); err != nil {
		return ReplChunk{}, err
	}
	if chunk.Data, err = io.ReadAll(resp.Body); err != nil {
		return ReplChunk{}, err
	}
	return chunk, nil
}
