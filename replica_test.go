package indep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"indep/internal/wal"
)

// waitCaughtUp blocks until the follower's applied position covers the
// primary's current flushed end.
func waitCaughtUp(t *testing.T, f *Follower, primary *DurableStore) {
	t.Helper()
	pos := primary.ReplPosition()
	if !f.WaitFor(pos, 10*time.Second) {
		t.Fatalf("follower stuck at %s, want %s (stats %+v)", f.Applied(), pos, f.ReplStats())
	}
}

// requireConverged fails with every difference when primary and follower
// snapshots disagree.
func requireConverged(t *testing.T, primary *DurableStore, f *Follower) {
	t.Helper()
	if diffs := DiffDatabases(primary.Snapshot(), f.Snapshot()); diffs != nil {
		t.Fatalf("diverged:\n  %v", diffs)
	}
}

// openPrimary opens a NoFsync durable store over a fresh star schema.
func openPrimary(t *testing.T, dims int) (*Schema, *DurableStore, string) {
	t.Helper()
	sch := starSchema(t, dims, 2)
	dir := t.TempDir()
	ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	return sch, ds, dir
}

// TestReplSourceRoundTrip pins the primary-side contract: streamed bytes
// parse as the segment header plus the exact frames the log wrote, and the
// snapshot decodes to the primary's state.
func TestReplSourceRoundTrip(t *testing.T) {
	sch, ds, _ := openPrimary(t, 2)
	defer ds.Close()
	if err := ds.InsertBatch(starBatch(sch, 2, 30)); err != nil {
		t.Fatal(err)
	}

	// Stream the whole log through ReplRead and count the records.
	pos := wal.Position{Seq: 1}
	var buf []byte
	headerDone := false
	records := 0
	for {
		chunk, err := ds.ReplRead(pos, 4096)
		if err != nil {
			t.Fatalf("ReplRead(%s): %v", pos, err)
		}
		if chunk.Start != pos {
			t.Fatalf("chunk start %s, want %s", chunk.Start, pos)
		}
		if len(chunk.Data) == 0 && chunk.Next == pos {
			break // caught up
		}
		buf = append(buf, chunk.Data...)
		if chunk.Next.Seq != pos.Seq {
			headerDone = false
		}
		pos = chunk.Next
		for {
			if !headerDone {
				if len(buf) < wal.SegmentHeaderBytes {
					break
				}
				if err := wal.CheckSegmentHeader(buf, chunk.Start.Seq); err != nil {
					t.Fatal(err)
				}
				buf = buf[wal.SegmentHeaderBytes:]
				headerDone = true
			}
			payload, n, err := wal.NextStreamFrame(buf)
			if errors.Is(err, wal.ErrShortFrame) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wal.DecodeRecord(payload); err != nil {
				t.Fatal(err)
			}
			records++
			buf = buf[n:]
		}
	}
	if records == 0 {
		t.Fatal("streamed no records")
	}
	if len(buf) != 0 {
		t.Fatalf("%d unparsed bytes at flushed end", len(buf))
	}

	// The snapshot decodes and carries the same tuple count as the state.
	data, tail, err := ds.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wal.DecodeCheckpointBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Seq == 0 || tail.Off != 0 {
		t.Fatalf("snapshot tail %s, want a segment start", tail)
	}
	total := 0
	for i := 0; i < ck.NumSchemes(); i++ {
		total += ck.RowCount(i)
	}
	if want := ds.Rows(); total != want {
		t.Fatalf("snapshot holds %d tuples, state has %d", total, want)
	}
}

// TestFollowerReplicates is the basic end-to-end: a follower tailing an
// in-process primary converges, serves reads from its own snapshots, and
// honors read-your-writes positions for writes issued while it streams.
func TestFollowerReplicates(t *testing.T) {
	sch, ds, _ := openPrimary(t, 3)
	defer ds.Close()
	if err := ds.InsertBatch(starBatch(sch, 3, 100)); err != nil {
		t.Fatal(err)
	}

	f, err := sch.OpenFollower(t.TempDir(), ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)

	// Writes issued while the follower is live arrive too.
	if err := ds.Insert("DIM1", map[string]string{"K1": "late", "D1_1": "x", "D1_2": "y"}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)

	st := f.ReplStats()
	if st.AppliedRecords == 0 {
		t.Fatal("no records applied")
	}
	if st.Resyncs != 1 {
		t.Fatalf("resyncs %d, want the bootstrap snapshot only", st.Resyncs)
	}
	if !st.Healthy {
		t.Fatalf("unhealthy: %s", st.LastError)
	}
}

// TestFollowerBootstrapsFromSnapshot starts a follower against a primary
// whose early log history a checkpoint already truncated: the zero cursor
// cannot stream, so the follower must install the snapshot and tail from
// its cut.
func TestFollowerBootstrapsFromSnapshot(t *testing.T) {
	sch, ds, _ := openPrimary(t, 2)
	defer ds.Close()
	if err := ds.InsertBatch(starBatch(sch, 2, 60)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Insert("DIM1", map[string]string{"K1": "post-ck", "D1_1": "a", "D1_2": "b"}); err != nil {
		t.Fatal(err)
	}

	f, err := sch.OpenFollower(t.TempDir(), ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)
	if st := f.ReplStats(); st.Resyncs != 1 {
		t.Fatalf("resyncs %d, want 1", st.Resyncs)
	}
}

// TestFollowerRestartResumes closes a caught-up follower, advances the
// primary, and reopens the follower in the same directory: local recovery
// plus the persisted position must resume the stream with no snapshot
// re-sync and converge.
func TestFollowerRestartResumes(t *testing.T) {
	sch, ds, _ := openPrimary(t, 2)
	defer ds.Close()
	if err := ds.InsertBatch(starBatch(sch, 2, 40)); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	f, err := sch.OpenFollower(fdir, ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, ds)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		if err := ds.Insert("DIM2", map[string]string{
			"K2": fmt.Sprintf("gap-%d", i), "D2_1": "g", "D2_2": "h",
		}); err != nil {
			t.Fatal(err)
		}
	}

	f, err = sch.OpenFollower(fdir, ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)
	if st := f.ReplStats(); st.Resyncs != 0 {
		t.Fatalf("restart forced %d resyncs, want none", st.Resyncs)
	}
}

// TestFollowerAbortRestartConverges kills the follower without its final
// position persist (Abort == kill -9 from the stream's point of view),
// advances the primary, and restarts: whatever REPLPOS recorded, the
// suffix-replay property makes the reopened follower converge.
func TestFollowerAbortRestartConverges(t *testing.T) {
	sch, ds, _ := openPrimary(t, 2)
	defer ds.Close()
	if err := ds.InsertBatch(starBatch(sch, 2, 40)); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	f, err := sch.OpenFollower(fdir, ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, ds)
	if err := f.Abort(); err != nil {
		t.Fatal(err)
	}

	if err := ds.Insert("DIM1", map[string]string{"K1": "after-kill", "D1_1": "q", "D1_2": "r"}); err != nil {
		t.Fatal(err)
	}

	f, err = sch.OpenFollower(fdir, ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)
}

// TestFollowerSurvivesPrimaryCheckpoint checkpoints the primary while the
// follower is mid-stream (truncating segments under the cursor) and keeps
// writing: the follower either keeps streaming or re-syncs, but converges.
func TestFollowerSurvivesPrimaryCheckpoint(t *testing.T) {
	sch, ds, _ := openPrimary(t, 2)
	defer ds.Close()
	if err := ds.InsertBatch(starBatch(sch, 2, 50)); err != nil {
		t.Fatal(err)
	}

	f, err := sch.OpenFollower(t.TempDir(), ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for round := 0; round < 3; round++ {
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := ds.Insert("DIM1", map[string]string{
				"K1": fmt.Sprintf("ck%d-%d", round, i), "D1_1": "v", "D1_2": "w",
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)
}

// TestFollowerWaitForTimesOut pins the WaitFor contract: a position beyond
// the stream times out false rather than blocking forever.
func TestFollowerWaitForTimesOut(t *testing.T) {
	sch, ds, _ := openPrimary(t, 2)
	defer ds.Close()
	f, err := sch.OpenFollower(t.TempDir(), ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	future := wal.Position{Seq: 1 << 40}
	if f.WaitFor(future, 50*time.Millisecond) {
		t.Fatal("WaitFor reached an unreachable position")
	}
}

// TestFollowerSeesWholePayloads: a primary commit is one log record, and a
// follower replays a record as one local commit. A reader polling the
// follower while mixed payloads stream in — each inserts a DIM1, DIM2 and
// FACT row for key i and deletes those for key i-1 — must never see one
// relation moved on without the others, and the follower's own log must
// gain exactly one record per primary commit.
func TestFollowerSeesWholePayloads(t *testing.T) {
	sch, ds, _ := openPrimary(t, 2)
	defer ds.Close()
	f, err := sch.OpenFollower(t.TempDir(), ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, ds)
	pBase, fBase := ds.WAL().Records, f.WAL().Records

	stop := make(chan struct{})
	torn := make(chan string, 1)
	go func() {
		defer close(torn)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := f.Snapshot()
			var keys [3][]string
			for r, rel := range []string{"DIM1", "DIM2", "FACT"} {
				rows, err := snap.Tuples(rel)
				if err != nil {
					torn <- err.Error()
					return
				}
				for _, row := range rows {
					key := strings.TrimPrefix(row["K1"], "k1-")
					if rel == "DIM2" {
						key = strings.TrimPrefix(row["K2"], "k2-")
					}
					keys[r] = append(keys[r], key)
				}
			}
			if len(keys[0]) > 1 || fmt.Sprint(keys[0]) != fmt.Sprint(keys[1]) || fmt.Sprint(keys[0]) != fmt.Sprint(keys[2]) {
				torn <- fmt.Sprintf("DIM1 %v, DIM2 %v, FACT %v", keys[0], keys[1], keys[2])
				return
			}
		}
	}()

	rows := func(i int) []BatchOp {
		k1, k2 := fmt.Sprintf("k1-%d", i), fmt.Sprintf("k2-%d", i)
		return []BatchOp{
			{"DIM1", map[string]string{"K1": k1, "D1_1": "a" + k1, "D1_2": "b" + k1}},
			{"DIM2", map[string]string{"K2": k2, "D2_1": "a" + k2, "D2_2": "b" + k2}},
			{"FACT", map[string]string{"K1": k1, "K2": k2}},
		}
	}
	const payloads = 60
	enc := NewBinBatchEncoder(sch)
	for i := 0; i < payloads; i++ {
		enc.Reset()
		for _, op := range rows(i) {
			if err := enc.Add(op.Rel, op.Row); err != nil {
				t.Fatal(err)
			}
		}
		if i > 0 {
			for _, op := range rows(i - 1) {
				if err := enc.Delete(op.Rel, op.Row); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := ds.ApplyBinBatch(context.Background(), enc.Bytes()); err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			waitCaughtUp(t, f, ds)
		}
	}
	waitCaughtUp(t, f, ds)
	close(stop)
	if msg, ok := <-torn; ok {
		t.Fatalf("a follower reader saw half a payload: %s", msg)
	}
	requireConverged(t, ds, f)
	if got := ds.WAL().Records - pBase; got != payloads {
		t.Fatalf("primary logged %d records for %d payloads", got, payloads)
	}
	if got := f.WAL().Records - fBase; got != payloads {
		t.Fatalf("follower logged %d records for %d primary commits, want one each", got, payloads)
	}
}

// TestFollowerRestartAfterUnloggedBindings: a bootstrap whose snapshot
// changes nothing locally commits nothing, so the bindings it restored ride
// in no record of the follower's log — until persistPos logs them ahead of
// REPLPOS. Without that, a restart would resume the stream above a
// dictionary gap: the stream's later records bind values after bindings
// that sit before the snapshot's cut.
func TestFollowerRestartAfterUnloggedBindings(t *testing.T) {
	sch, ds, _ := openPrimary(t, 2)
	defer ds.Close()
	first := map[string]string{"K1": "first", "D1_1": "fa", "D1_2": "fb"}
	if err := ds.Insert("DIM1", first); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Delete("DIM1", first); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	f, err := sch.OpenFollower(fdir, ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, ds)
	if f.Rows() != 0 || f.eng.Dict().Len() == 0 {
		t.Fatalf("bootstrap: %d rows, %d bindings; want an empty state with bindings", f.Rows(), f.eng.Dict().Len())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh names in every dictionary shard, then a row over the bindings
	// the primary logged before the follower's snapshot.
	for i := 0; i < 200; i++ {
		if err := ds.Insert("DIM2", map[string]string{
			"K2": fmt.Sprintf("later-%d", i), "D2_1": "x", "D2_2": "y",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Insert("DIM1", first); err != nil {
		t.Fatal(err)
	}

	f, err = sch.OpenFollower(fdir, ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)
	if st := f.ReplStats(); st.Resyncs != 0 || !st.Healthy {
		t.Fatalf("restart: %+v, want a healthy resume with no resync", st)
	}
}
