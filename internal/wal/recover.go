package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ReplayStats summarizes a recovery pass. A record is one commit.
type ReplayStats struct {
	Segments       int   // segments scanned
	Records        int   // records handed to the callback
	TruncatedBytes int64 // torn-tail bytes removed from the final segment
	Skipped        int   // records the callback reported skipped (see Replay)
}

// Replay scans the segments of dir with sequence number >= fromSeq in
// order and invokes fn for every record, one commit at a time. A torn tail — an
// incomplete or checksum-failing frame at the end of the FINAL segment —
// is truncated from the file and replay ends cleanly at the last good
// record; the same condition in an earlier segment is corruption (sealed
// segments are fsynced before rotation) and returns an error.
//
// fn errors wrapping ErrSkip are counted in Skipped and replay continues;
// any other fn error aborts the replay.
func Replay(dir string, fromSeq uint64, fn func(Record) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSeqs(dir, segPattern)
	if err != nil {
		return stats, err
	}
	// A gap below fromSeq is fine (checkpoint truncation); a gap at or
	// above it means committed records are missing.
	var replay []uint64
	for _, s := range segs {
		if s >= fromSeq {
			replay = append(replay, s)
		}
	}
	for i := 1; i < len(replay); i++ {
		if replay[i] != replay[i-1]+1 {
			return stats, fmt.Errorf("wal: segment gap: %s follows %s",
				segName(replay[i]), segName(replay[i-1]))
		}
	}
	for i, seq := range replay {
		last := i == len(replay)-1
		n, trunc, err := replaySegment(dir, seq, last, fn, &stats)
		if err != nil {
			return stats, err
		}
		stats.Segments++
		stats.Records += n
		stats.TruncatedBytes += trunc
	}
	return stats, nil
}

// ErrSkip wraps replay-callback errors that should drop the record and
// continue (e.g. a record the engine re-rejects).
var ErrSkip = errors.New("wal: record skipped")

func replaySegment(dir string, seq uint64, last bool, fn func(Record) error, stats *ReplayStats) (records int, truncated int64, err error) {
	path := filepath.Join(dir, segName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if err := CheckSegmentHeader(data, seq); err != nil {
		if last {
			// A header torn mid-creation carries no records. Remove the
			// file entirely — a zero-length remnant would read as a corrupt
			// SEALED segment on the next recovery and brick the store.
			if err := os.Remove(path); err != nil {
				return 0, 0, err
			}
			syncDir(dir)
			return 0, int64(len(data)), nil
		}
		return 0, 0, fmt.Errorf("wal: %s: bad segment header: %w", segName(seq), err)
	}
	b := data[segHeader:]
	good := int64(segHeader)
	for len(b) > 0 {
		payload, n, err := NextStreamFrame(b)
		if err != nil { // short or corrupt: the torn-tail condition
			if !last {
				return records, 0, fmt.Errorf("wal: %s: corrupt frame at offset %d in sealed segment",
					segName(seq), good)
			}
			tail := int64(len(b))
			if err := os.Truncate(path, good); err != nil {
				return records, 0, err
			}
			return records, tail, nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return records, 0, fmt.Errorf("wal: %s: offset %d: %w", segName(seq), good, err)
		}
		if err := fn(rec); err != nil {
			if errors.Is(err, ErrSkip) {
				stats.Skipped++
			} else {
				return records, 0, err
			}
		}
		records++
		good += int64(n)
		b = b[n:]
	}
	return records, 0, nil
}
