package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the primary side of WAL-streaming replication: a cursor
// protocol over the log's segments. A replica addresses the log by Position
// (segment sequence number plus byte offset) and pulls raw segment bytes —
// the same CRC-framed records recovery replays — so the replication stream
// needs no second encoding and inherits the log's corruption detection. The
// log serves only bytes it has already flushed per its sync mode (under
// SyncAlways the stats offset advances after the group's fsync), so a
// replica can never apply a record the primary might lose in a crash.

// Position addresses one byte of the log: the segment's sequence number and
// the offset within the segment file (the 16-byte header included, so offset
// 0 is the start of the file). Positions order lexicographically and only
// grow over the life of a log directory — rotation opens a higher sequence,
// truncation removes low sequences without renumbering, and recovery after a
// crash opens a fresh segment above every sealed one — which is what makes a
// Position usable as an LSN-style read-your-writes token across restarts.
type Position struct {
	Seq uint64
	Off int64
}

// Less reports strict lexicographic order.
func (p Position) Less(q Position) bool {
	if p.Seq != q.Seq {
		return p.Seq < q.Seq
	}
	return p.Off < q.Off
}

// IsZero reports the zero position, which addresses no segment (sequence
// numbers start at 1): the position of an empty follower.
func (p Position) IsZero() bool { return p.Seq == 0 && p.Off == 0 }

// String renders the position as "seq/off", the wire form of the
// replication token.
func (p Position) String() string { return fmt.Sprintf("%d/%d", p.Seq, p.Off) }

// ParsePosition parses the "seq/off" form. The empty string parses to the
// zero position, so an absent token means "no requirement".
func ParsePosition(s string) (Position, error) {
	if s == "" {
		return Position{}, nil
	}
	seqs, offs, ok := strings.Cut(s, "/")
	if !ok {
		return Position{}, fmt.Errorf("wal: bad position %q (want seq/off)", s)
	}
	seq, err1 := strconv.ParseUint(seqs, 10, 64)
	off, err2 := strconv.ParseInt(offs, 10, 64)
	if err1 != nil || err2 != nil || off < 0 {
		return Position{}, fmt.Errorf("wal: bad position %q (want seq/off)", s)
	}
	return Position{Seq: seq, Off: off}, nil
}

// ErrSegmentGone reports that the requested segment has been truncated away
// by a checkpoint (or never survived a crash): the cursor cannot resume and
// the replica must re-sync from a snapshot.
var ErrSegmentGone = errors.New("wal: segment truncated away")

// ErrShortFrame reports that a buffer ends before the frame does — the
// streaming analogue of a torn tail: not corruption, just "wait for more
// bytes".
var ErrShortFrame = errors.New("wal: incomplete frame")

// SegmentHeaderBytes is the size of the segment-file header a stream
// consumer must skip (after verifying it with CheckSegmentHeader).
const SegmentHeaderBytes = segHeader

// SegmentFile returns the file name of segment seq within a log directory
// — exposed so a replication follower can check whether its local log
// still holds the bytes a persisted position claims.
func SegmentFile(seq uint64) string { return segName(seq) }

// CheckSegmentHeader verifies the 16-byte header at the start of a segment,
// streamed or read back by recovery: magic plus the expected sequence
// number. ErrShortFrame means the buffer does not yet hold the whole header.
func CheckSegmentHeader(b []byte, seq uint64) error {
	if len(b) < segHeader {
		return ErrShortFrame
	}
	if string(b[:8]) != segMagic {
		return fmt.Errorf("wal: segment %d: bad magic", seq)
	}
	if got := binary.LittleEndian.Uint64(b[8:16]); got != seq {
		return fmt.Errorf("wal: segment declares seq %d, want %d", got, seq)
	}
	return nil
}

// NextStreamFrame parses the frame at the start of b, returning its payload
// and total encoded size. ErrShortFrame means b is a proper prefix of a
// frame (stream more bytes and retry); any other error is corruption — a
// checksum mismatch or an absurd length — which a live stream, unlike
// recovery, must not silently truncate at.
func NextStreamFrame(b []byte) (payload []byte, size int, err error) {
	if len(b) < frameHeader {
		return nil, 0, ErrShortFrame
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(maxPayload) {
		return nil, 0, fmt.Errorf("wal: frame length %d exceeds limit", n)
	}
	if uint64(frameHeader)+uint64(n) > uint64(len(b)) {
		return nil, 0, ErrShortFrame
	}
	payload = b[frameHeader : frameHeader+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, fmt.Errorf("wal: frame checksum mismatch")
	}
	return payload, frameHeader + int(n), nil
}

// Flushed returns the position just past the last byte the log has flushed
// (and, under SyncAlways, fsynced): the upper bound of what ReadAt will
// serve, and the token a durable commit is covered by once its wait
// returned.
func (l *Log) Flushed() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Position{Seq: l.stats.ActiveSeq, Off: l.stats.ActiveBytes}
}

// ReadAt serves up to max raw bytes of the log starting at pos, for a
// replication cursor. It returns the bytes actually read and the position
// the caller should request next:
//
//   - data from the middle of a segment advances next within the segment;
//   - reaching the end of a sealed segment advances next to the start of
//     the following one (offset 0 — the consumer verifies the header);
//   - a position at the flushed end of the active segment (or in a segment
//     the writer has not opened yet) returns no data with next == pos: poll
//     again later;
//   - a position below the oldest live segment, or beyond the end of a
//     sealed segment (which after a crash means the primary truncated a
//     torn tail the cursor had already been served under SyncNever),
//     returns ErrSegmentGone: the cursor cannot resume and the replica must
//     re-sync from a snapshot.
//
// Only flushed bytes are served, so a record obtained through ReadAt is
// exactly as durable as the log's sync mode promises.
func (l *Log) ReadAt(pos Position, max int) (data []byte, next Position, err error) {
	if max <= 0 {
		max = 1 << 20
	}
	l.mu.Lock()
	oldest := l.stats.OldestSeq
	active := l.stats.ActiveSeq
	flushed := l.stats.ActiveBytes
	l.mu.Unlock()

	switch {
	case pos.Seq > active:
		// The rotation that will create this segment is queued but has not
		// run yet (snapshot cuts hand out the sequence number before the
		// writer opens the file). Nothing to serve; not an error.
		return nil, pos, nil
	case pos.Seq < oldest:
		return nil, pos, ErrSegmentGone
	}

	end := flushed
	sealed := pos.Seq < active
	path := filepath.Join(l.dir, segName(pos.Seq))
	if sealed {
		fi, err := os.Stat(path)
		if err != nil {
			if os.IsNotExist(err) {
				// Truncated between the stats read and the stat.
				return nil, pos, ErrSegmentGone
			}
			return nil, pos, err
		}
		end = fi.Size()
	}
	if pos.Off > end {
		// Beyond the end of the segment: under SyncNever a crash can lose
		// a tail the cursor was already served; recovery truncated it, so
		// the cursor's history has forked from the log's.
		return nil, pos, ErrSegmentGone
	}
	if pos.Off == end {
		if sealed {
			return nil, Position{Seq: pos.Seq + 1}, nil
		}
		return nil, pos, nil
	}

	n := end - pos.Off
	if int64(max) < n {
		n = int64(max)
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, pos, ErrSegmentGone
		}
		return nil, pos, err
	}
	defer f.Close()
	data = make([]byte, n)
	if _, err := f.ReadAt(data, pos.Off); err != nil && err != io.EOF {
		return nil, pos, err
	}
	next = Position{Seq: pos.Seq, Off: pos.Off + n}
	if sealed && next.Off == end {
		next = Position{Seq: pos.Seq + 1}
	}
	return data, next, nil
}
