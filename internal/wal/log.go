package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"indep/internal/obs"
)

// SyncMode selects the durability level of the log.
type SyncMode int

const (
	// SyncAlways fsyncs once per commit group before acknowledging the
	// group's waiters: an acknowledged commit survives power loss. Group
	// commit amortizes the fsync — all records enqueued while the previous
	// fsync was in flight share the next one.
	SyncAlways SyncMode = iota
	// SyncNever writes without fsync. Acknowledged commits survive a
	// process crash (the OS holds the pages) but not power loss.
	SyncNever
)

// Options configures a Log.
type Options struct {
	// Sync is the durability mode; default SyncAlways.
	Sync SyncMode
	// SegmentBytes rotates to a fresh segment once the active one exceeds
	// this size; default 16 MiB.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	return o
}

// Segment files are "wal-<seq>.seg" and begin with a 16-byte header: magic
// plus the segment sequence number, so a file renamed across directories is
// caught on recovery.
const (
	segMagic    = "INDEPWAL"
	segHeader   = 16
	segPattern  = "wal-%08d.seg"
	ckptPattern = "ckpt-%08d.ckpt"
)

func segName(seq uint64) string  { return fmt.Sprintf(segPattern, seq) }
func ckptName(seq uint64) string { return fmt.Sprintf(ckptPattern, seq) }

// queued is one unit of writer work: an encoded record frame to append, or
// one of the control markers (rotate, truncate, sync).
type queued struct {
	data []byte
	done chan error

	rotateTo    uint64 // rotate marker when != 0: seal and open segment rotateTo
	truncBefore uint64 // truncate marker when != 0: delete segments < truncBefore
	sync        bool   // sync marker: flush + fsync, then ack done
}

// Ticket is a handle on a pending append; Wait blocks until the record is
// written (and fsynced, under SyncAlways) or the log fails.
type Ticket struct {
	done  chan error
	bytes int
}

// Wait blocks for the append's outcome.
func (t *Ticket) Wait() error { return <-t.done }

// Bytes returns the encoded size of the append's frame — what the commit
// actually cost the log, surfaced as a span attribute on traced writes.
func (t *Ticket) Bytes() int { return t.bytes }

// LogStats is a point-in-time view of the log's activity.
type LogStats struct {
	ActiveSeq    uint64 // sequence number of the segment being appended to
	OldestSeq    uint64 // oldest segment still on disk
	Segments     int    // segments on disk (including active)
	ActiveBytes  int64  // bytes in the active segment
	TotalBytes   int64  // bytes across all live segments: the replay debt
	Records      uint64 // records (commits) appended to the log; a split record counts once
	Syncs        uint64 // fsync calls issued
	CommitGroups uint64 // write groups (Records/CommitGroups = commits per fsync)
}

// Log is an append-only write-ahead log with group commit. Any number of
// goroutines may Append concurrently; a single writer goroutine drains the
// queue, writes each batch with one write call, fsyncs once per batch
// (SyncAlways), and acknowledges every waiter in the batch. All methods are
// safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu            sync.Mutex
	queue         []queued
	kick          chan struct{} // wakes the writer; buffered(1)
	nextSeq       uint64        // seq the next rotation will open
	rotatePending bool          // a size-based rotate marker is already queued
	failed        error         // sticky: set on I/O failure, fails all later ops
	closed        bool
	wg            sync.WaitGroup

	// Writer-goroutine state (no lock needed) …
	f         *os.File
	activeSeq uint64
	offset    int64

	// … except the stats snapshot, which readers take under mu.
	stats LogStats

	// Latency and batching histograms, lock-free: the writer goroutine
	// observes, scrapers snapshot concurrently.
	writeLat  obs.Histogram // write(2) duration per flushed group, ns
	fsyncLat  obs.Histogram // fsync duration, ns
	groupRecs obs.Histogram // records (commits) coalesced per commit group
}

// LatencyStats returns snapshots of the log's write-latency, fsync-latency,
// and records-per-commit-group histograms — the same histograms /metrics
// exposes, so /stats and a scrape always agree.
func (l *Log) LatencyStats() (write, fsync, groupRecords obs.HistSnapshot) {
	return l.writeLat.Snapshot(), l.fsyncLat.Snapshot(), l.groupRecs.Snapshot()
}

// RegisterMetrics files the log's metric families with the registry.
func (l *Log) RegisterMetrics(r *obs.Registry) {
	r.RegisterHistogram("indep_wal_write_duration_seconds",
		"write(2) latency per flushed commit group", 1e-9, &l.writeLat)
	r.RegisterHistogram("indep_wal_fsync_duration_seconds",
		"fsync latency per commit group", 1e-9, &l.fsyncLat)
	r.RegisterHistogram("indep_wal_commit_group_records",
		"records, one per commit, coalesced into one commit group", 1, &l.groupRecs)
	r.CounterFunc("indep_wal_records_total",
		"records appended to the log, one per commit", func() uint64 { return l.Stats().Records })
	r.CounterFunc("indep_wal_syncs_total",
		"fsync calls issued", func() uint64 { return l.Stats().Syncs })
	r.CounterFunc("indep_wal_commit_groups_total",
		"write groups drained by the writer", func() uint64 { return l.Stats().CommitGroups })
	r.GaugeFunc("indep_wal_segments",
		"segments on disk, including active", func() float64 { return float64(l.Stats().Segments) })
	r.GaugeFunc("indep_wal_live_bytes",
		"bytes across all live segments: the replay debt", func() float64 { return float64(l.Stats().TotalBytes) })
}

// OpenLog opens the log for appending, starting a fresh segment after the
// existing ones. Run recovery (LatestCheckpoint + Replay) before OpenLog;
// sealed segments are never appended to, so a torn tail truncated by Replay
// stays truncated.
func OpenLog(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSeqs(dir, segPattern)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	l := &Log{
		dir:  dir,
		opts: opts.withDefaults(),
		kick: make(chan struct{}, 1),
	}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	l.nextSeq = next + 1
	l.stats.ActiveSeq = next
	l.stats.ActiveBytes = segHeader
	l.stats.Segments = len(segs) + 1
	l.stats.OldestSeq = next
	l.stats.TotalBytes = segHeader
	if len(segs) > 0 {
		l.stats.OldestSeq = segs[0]
		for _, s := range segs {
			if fi, err := os.Stat(filepath.Join(dir, segName(s))); err == nil {
				l.stats.TotalBytes += fi.Size()
			}
		}
	}
	l.wg.Add(1)
	go l.run()
	return l, nil
}

// listSeqs returns the sequence numbers of dir's files named by pattern
// (segPattern or ckptPattern), ascending; none when dir does not exist.
func listSeqs(dir, pattern string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), pattern, &seq); err == nil && e.Name() == fmt.Sprintf(pattern, seq) {
			out = append(out, seq)
		}
	}
	slices.Sort(out)
	return out, nil
}

// openSegment creates segment seq and makes it the active file. Writer
// goroutine (or pre-start) only.
func (l *Log) openSegment(seq uint64) error {
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, segHeader)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	// The header and the file's directory entry must be durable before any
	// commit in this segment is acknowledged; syncing now keeps the
	// invariant that every acknowledged record lives in a fully linked,
	// well-formed segment.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	syncDir(l.dir)
	l.f = f
	l.activeSeq = seq
	l.offset = segHeader
	return nil
}

// syncDir best-effort fsyncs a directory so renames and creates are
// durable. Errors are ignored: some filesystems reject directory fsync, and
// the data files themselves are already synced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// enqueue adds an item to the writer queue and wakes the writer. It
// reports the sticky failure, if any, without enqueueing.
func (l *Log) enqueue(q queued) error {
	l.mu.Lock()
	if l.failed != nil || l.closed {
		err := l.failed
		l.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("wal: log is closed")
		}
		return err
	}
	l.queue = append(l.queue, q)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return nil
}

// Append queues one record and returns a Ticket whose Wait reports when it
// is durable (per the sync mode). It is the log's only way in for data:
// records land in the log in the order Append is called.
func (l *Log) Append(rec Record) *Ticket {
	buf := AppendRecordFrame(nil, rec)
	t := &Ticket{done: make(chan error, 1), bytes: len(buf)}
	if err := l.enqueue(queued{data: buf, done: t.done}); err != nil {
		t.done <- err
	}
	return t
}

// Rotate seals the active segment (flushing and fsyncing everything queued
// before the call) and opens a fresh one, returning the new segment's
// sequence number. Every record enqueued before Rotate lands in a segment
// numbered below the returned value — the cut checkpoints are built on.
// The seal happens asynchronously on the writer goroutine.
func (l *Log) Rotate() uint64 {
	l.mu.Lock()
	if l.failed != nil || l.closed {
		seq := l.nextSeq
		l.mu.Unlock()
		return seq
	}
	seq := l.nextSeq
	l.nextSeq++
	l.queue = append(l.queue, queued{rotateTo: seq})
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return seq
}

// RemoveBefore deletes sealed segments with sequence numbers below seq,
// once the writer has drained everything queued ahead of the call. Call
// only after a checkpoint covering those segments is durable.
func (l *Log) RemoveBefore(seq uint64) error {
	t := &Ticket{done: make(chan error, 1)}
	if err := l.enqueue(queued{truncBefore: seq, done: t.done}); err != nil {
		return err
	}
	return t.Wait()
}

// Sync flushes and fsyncs everything enqueued so far.
func (l *Log) Sync() error {
	t := &Ticket{done: make(chan error, 1)}
	if err := l.enqueue(queued{sync: true, done: t.done}); err != nil {
		return err
	}
	return t.Wait()
}

// Close flushes, fsyncs, and closes the log. Later appends fail.
func (l *Log) Close() error {
	err := l.Sync()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	l.wg.Wait()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a point-in-time view of the log. All counters are
// maintained in memory by the writer goroutine — no filesystem I/O — so
// the stats endpoint can poll freely.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// run is the writer goroutine: it drains the queue in batches, each batch
// becoming one write (and one fsync under SyncAlways) shared by every
// commit in it.
func (l *Log) run() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		batch := l.queue
		l.queue = nil
		closed := l.closed
		l.mu.Unlock()
		if len(batch) == 0 {
			if closed {
				return
			}
			<-l.kick
			continue
		}
		l.process(batch)
	}
}

// process writes one batch. Contiguous data items become a single write;
// markers force the pending data out first, then act.
func (l *Log) process(batch []queued) {
	// A failed log never writes again: items that raced into the queue
	// while the failure was being recorded must be refused, not appended
	// after a torn frame and falsely acknowledged as durable.
	l.mu.Lock()
	failed := l.failed
	l.mu.Unlock()
	if failed != nil {
		for _, q := range batch {
			if q.done != nil {
				q.done <- failed
			}
		}
		return
	}

	var pend []byte          // coalesced frames not yet written
	var waiters []chan error // commit waiters not yet acknowledged
	var records uint64       // records in the group, for the histogram
	var unpublished uint64   // records written but not yet in stats
	var wrote int64          // bytes written but not yet in stats
	counted := false         // the group is in stats.CommitGroups

	fail := func(err error) {
		l.mu.Lock()
		if l.failed == nil {
			l.failed = err
		}
		l.mu.Unlock()
		for _, w := range waiters {
			w <- err
		}
		for _, q := range batch {
			if q.done != nil {
				q.done <- err
			}
		}
	}

	// flush writes the coalesced frames; commit additionally fsyncs (per
	// the sync mode), publishes the counters and acknowledges the waiters
	// gathered so far.
	flush := func() error {
		if len(pend) == 0 {
			return nil
		}
		start := time.Now()
		n, err := l.f.Write(pend)
		l.writeLat.ObserveSince(start)
		l.offset += int64(n)
		wrote += int64(n)
		pend = pend[:0]
		return err
	}
	commit := func(forceSync bool) error {
		if err := flush(); err != nil {
			return err
		}
		if l.opts.Sync == SyncAlways || forceSync {
			start := time.Now()
			if err := l.f.Sync(); err != nil {
				return err
			}
			l.fsyncLat.ObserveSince(start)
			l.mu.Lock()
			l.stats.Syncs++
			l.mu.Unlock()
		}
		// Publish the flushed position and the counters before acking any
		// waiter: a caller whose Wait returned must find its record at or
		// below Flushed() (the read-your-writes token a replica syncs
		// against) and counted by Stats().
		l.mu.Lock()
		l.stats.ActiveSeq = l.activeSeq
		l.stats.ActiveBytes = l.offset
		l.stats.TotalBytes += wrote
		l.stats.Records += unpublished
		if !counted {
			l.stats.CommitGroups++
			counted = true
		}
		l.mu.Unlock()
		wrote, unpublished = 0, 0
		for _, w := range waiters {
			w <- nil
		}
		waiters = waiters[:0]
		return nil
	}

	for i := 0; i < len(batch); i++ {
		q := batch[i]
		switch {
		case q.rotateTo != 0:
			if err := commit(true); err != nil {
				fail(err)
				return
			}
			if err := l.rotateTo(q.rotateTo); err != nil {
				fail(err)
				return
			}
			l.mu.Lock()
			l.rotatePending = false
			l.mu.Unlock()
		case q.truncBefore != 0:
			if err := commit(true); err != nil {
				fail(err)
				return
			}
			q.done <- l.removeBefore(q.truncBefore)
			batch[i].done = nil
		case q.sync:
			if err := commit(true); err != nil {
				fail(err)
				return
			}
			q.done <- nil
			batch[i].done = nil
		default:
			pend = append(pend, q.data...)
			records++
			unpublished++
			waiters = append(waiters, q.done)
			batch[i].done = nil // owned by waiters from here on
		}
	}
	if err := commit(false); err != nil {
		fail(err)
		return
	}

	if records > 0 {
		l.groupRecs.Observe(int64(records))
	}

	// Size-based rotation goes through the queue like Rotate() does —
	// every rotation allocates its sequence number at enqueue time under
	// mu, so queue order always equals segment-number order and a
	// checkpoint's cut can never be leapfrogged by a lower-numbered seal.
	if l.offset >= l.opts.SegmentBytes {
		l.mu.Lock()
		if !l.rotatePending && l.failed == nil && !l.closed {
			l.rotatePending = true
			seq := l.nextSeq
			l.nextSeq++
			l.queue = append(l.queue, queued{rotateTo: seq})
		}
		l.mu.Unlock()
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
}

// rotateTo seals the active segment and opens seq. Writer goroutine only;
// pending data must be flushed and synced first.
func (l *Log) rotateTo(seq uint64) error {
	if err := l.f.Close(); err != nil {
		return err
	}
	if err := l.openSegment(seq); err != nil {
		return err
	}
	l.mu.Lock()
	l.stats.ActiveSeq = seq
	l.stats.ActiveBytes = segHeader
	l.stats.Segments++
	l.stats.TotalBytes += segHeader
	l.mu.Unlock()
	return nil
}

// removeBefore deletes sealed segments below seq. Writer goroutine only.
func (l *Log) removeBefore(seq uint64) error {
	segs, err := listSeqs(l.dir, segPattern)
	if err != nil {
		return err
	}
	var firstErr error
	removed := 0
	var freed int64
	oldest := l.activeSeq
	for _, s := range segs {
		if s >= seq || s == l.activeSeq {
			if s < oldest {
				oldest = s
			}
			continue
		}
		path := filepath.Join(l.dir, segName(s))
		var size int64
		if fi, err := os.Stat(path); err == nil {
			size = fi.Size()
		}
		if err := os.Remove(path); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if s < oldest {
				oldest = s
			}
			continue
		}
		removed++
		freed += size
	}
	syncDir(l.dir)
	l.mu.Lock()
	l.stats.Segments -= removed
	l.stats.TotalBytes -= freed
	l.stats.OldestSeq = oldest
	l.mu.Unlock()
	return firstErr
}

// removeCheckpointsExcept deletes checkpoint files other than keep.
func removeCheckpointsExcept(dir string, keep uint64) {
	cks, err := listSeqs(dir, ckptPattern)
	if err != nil {
		return
	}
	for _, s := range cks {
		if s != keep {
			os.Remove(filepath.Join(dir, ckptName(s)))
		}
	}
	syncDir(dir)
}
