package indep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indep/internal/relation"
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
	for _, n := range ck.Counts {
		total += n
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
// re-sync and converge. It does so twice, the second time after a local
// checkpoint removed the segment the persisted position names.
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
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)
	if st := f.ReplStats(); st.Resyncs != 0 {
		t.Fatalf("restart forced %d resyncs, want none", st.Resyncs)
	}

	// Once REPLPOS is written, a local checkpoint removes the segment it
	// names; the checkpoint recovery loads covers that segment, so the
	// position is still trusted and the restart resumes without a re-sync.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		f.fmu.Lock()
		persisted := f.persisted == f.applied
		f.fmu.Unlock()
		if persisted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never persisted its position")
		}
	}
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Insert("DIM2", map[string]string{"K2": "after-ck", "D2_1": "g", "D2_2": "h"}); err != nil {
		t.Fatal(err)
	}
	f, err = sch.OpenFollower(fdir, ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Recovery().CheckpointSeq == 0 {
		t.Fatal("restart loaded no local checkpoint")
	}
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)
	if st := f.ReplStats(); st.Resyncs != 0 {
		t.Fatalf("restart after a local checkpoint forced %d resyncs, want none", st.Resyncs)
	}
}

// goneCounter is a ReplSource counting the wal.ErrSegmentGone answers its
// source gives.
type goneCounter struct {
	ReplSource
	gone atomic.Int64
}

func (g *goneCounter) ReplRead(pos wal.Position, max int) (ReplChunk, error) {
	chunk, err := g.ReplSource.ReplRead(pos, max)
	if errors.Is(err, wal.ErrSegmentGone) {
		g.gone.Add(1)
	}
	return chunk, err
}

// TestFollowerResyncDeletesStaleTuples closes a follower holding tuple X;
// the primary then deletes X, inserts Y and checkpoints, truncating the
// segment the follower stopped in. The reopened follower must find its
// segment gone, re-sync once from the primary's snapshot, and install it as
// a diff against its recovered state: X deleted, Y inserted.
func TestFollowerResyncDeletesStaleTuples(t *testing.T) {
	sch, ds, _ := openPrimary(t, 1)
	defer ds.Close()
	x := map[string]string{"K1": "x", "D1_1": "a", "D1_2": "b"}
	y := map[string]string{"K1": "y", "D1_1": "a", "D1_2": "b"}
	if err := ds.Insert("DIM1", x); err != nil {
		t.Fatal(err)
	}
	held := func(f *Follower) []string {
		t.Helper()
		rows, err := f.Snapshot().Tuples("DIM1")
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, r := range rows {
			keys = append(keys, r["K1"])
		}
		return keys
	}

	fdir := t.TempDir()
	opts := FollowerOptions{NoFsync: true, PollInterval: time.Millisecond}
	f, err := sch.OpenFollower(fdir, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, ds)
	if got := held(f); len(got) != 1 || got[0] != "x" {
		t.Fatalf("caught-up follower holds %v, want [x]", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if ok, err := ds.Delete("DIM1", x); err != nil || !ok {
		t.Fatalf("delete X: %v %v", ok, err)
	}
	if err := ds.Insert("DIM1", y); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	src := &goneCounter{ReplSource: ds}
	f, err = sch.OpenFollower(fdir, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, ds)
	if st := f.ReplStats(); st.Resyncs != 1 || src.gone.Load() == 0 {
		t.Fatalf("resyncs %d after %d segment-gone reads, want 1 after at least 1", st.Resyncs, src.gone.Load())
	}
	if got := held(f); len(got) != 1 || got[0] != "y" {
		t.Fatalf("re-synced follower holds %v, want [y]", got)
	}
	requireConverged(t, ds, f)
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

// hostileSnapshot is a ReplSource whose snapshot is fixed bytes and whose
// log holds nothing, so a follower keeps re-syncing from it.
type hostileSnapshot []byte

func (h hostileSnapshot) ReplSnapshot() ([]byte, wal.Position, error) {
	return h, wal.Position{Seq: 1}, nil
}

func (h hostileSnapshot) ReplRead(pos wal.Position, max int) (ReplChunk, error) {
	return ReplChunk{}, wal.ErrSegmentGone
}

// TestFollowerSurvivesRowsWithoutColumns feeds a follower a 22-byte
// snapshot whose last relation claims 2^40 rows and no columns. Trusting
// the count would allocate until the process dies; the follower must stay
// up, install nothing and report the error.
func TestFollowerSurvivesRowsWithoutColumns(t *testing.T) {
	sch := MustParse("CT(C,T)", "C -> T")
	data := (&wal.Checkpoint{Cols: [][][]relation.Value{{}}, Counts: []int{1 << 40}}).Encode()
	if len(data) != 22 {
		t.Fatalf("hostile snapshot is %d bytes, want 22", len(data))
	}
	f, err := sch.OpenFollower(t.TempDir(), hostileSnapshot(data), FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st := waitReplError(t, f); st.Healthy || f.Rows() != 0 {
		t.Fatalf("after the hostile snapshot: %+v, %d rows", st, f.Rows())
	}
}

// waitReplError blocks until the follower reports a stream error and
// returns its stats.
func waitReplError(t *testing.T, f *Follower) FollowerStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.ReplStats().LastError == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no error reported: %+v", f.ReplStats())
		}
		time.Sleep(time.Millisecond)
	}
	return f.ReplStats()
}

// TestCheckpointInstallRefusesInconsistentState feeds two well-encoded but
// bad checkpoints to both callers of installCheckpoint: one holding CT rows
// (c,t1) and (c,t2), which C -> T forbids, and one whose relation has the
// wrong arity. Recovery must refuse to open the store, the conflict as a
// rejection; a follower fed the same bytes must stay up, report the error
// and install nothing.
func TestCheckpointInstallRefusesInconsistentState(t *testing.T) {
	sch := MustParse("CT(C,T)", "C -> T")
	var d relation.Dict
	c, t1, t2 := d.Value("c"), d.Value("t1"), d.Value("t2")
	dict := d.AppendNew(&relation.Marks{}, nil)
	for _, tc := range []struct {
		name     string
		ck       *wal.Checkpoint
		want     string // in the error
		rejected bool
	}{
		{"conflict", &wal.Checkpoint{Seq: 1, Dict: dict,
			Cols: [][][]relation.Value{{{c, c}, {t1, t2}}}, Counts: []int{2}}, "fails admission", true},
		{"arity", &wal.Checkpoint{Seq: 1, Dict: dict,
			Cols: [][][]relation.Value{{{c}, {t1}, {t2}}}, Counts: []int{1}}, "arity 3", false},
	} {
		dir := t.TempDir()
		if _, err := wal.WriteCheckpoint(dir, tc.ck); err != nil {
			t.Fatal(err)
		}
		ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
		if err == nil {
			ds.Close()
			t.Fatalf("%s: recovery opened the store", tc.name)
		}
		if Rejected(err) != tc.rejected || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: recovery error %v (rejected %v), want %q", tc.name, err, Rejected(err), tc.want)
		}

		f, err := sch.OpenFollower(t.TempDir(), hostileSnapshot(tc.ck.Encode()), FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		st := waitReplError(t, f)
		rows := f.Rows()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Healthy || rows != 0 || !strings.Contains(st.LastError, tc.want) {
			t.Fatalf("%s: follower %+v with %d rows, want the error %q and none", tc.name, st, rows, tc.want)
		}
	}
}

// TestFollowerResyncBacksOff opens a follower over CT(C,T); CS(C,S) against
// a CT(C,T) primary, so every re-sync fails on the relation count. Each
// attempt cuts a snapshot that rotates the primary's log, so the follower
// must back off: at a 1ms poll interval, half a second holds a handful of
// attempts, not hundreds, and Close still interrupts the wait.
func TestFollowerResyncBacksOff(t *testing.T) {
	dir := t.TempDir()
	ds, err := MustParse("CT(C,T)", "C -> T").OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	f, err := MustParse("CT(C,T); CS(C,S)", "C -> T").OpenFollower(t.TempDir(), ds,
		FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	st := f.ReplStats()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v during the backoff", d)
	}
	if st.Resyncs == 0 || st.Resyncs > 15 {
		t.Errorf("%d re-syncs in 500ms, want 1..15", st.Resyncs)
	}
	if uint64(len(segs)) > st.Resyncs+1 {
		t.Errorf("primary holds %d segments after %d re-syncs", len(segs), st.Resyncs)
	}
	if !strings.Contains(st.LastError, "checkpoint has 1 relations, schema has 2") {
		t.Errorf("last error %q, want the relation-count mismatch", st.LastError)
	}
}

// flipOnce is a ReplSource whose reads wait until open is closed and whose
// first non-empty chunk arrives with its last byte flipped. snapped closes
// once the first snapshot has been served.
type flipOnce struct {
	ReplSource
	open, snapped chan struct{}
	snapOnce      sync.Once
	flipped       atomic.Bool
}

func (g *flipOnce) ReplSnapshot() ([]byte, wal.Position, error) {
	defer g.snapOnce.Do(func() { close(g.snapped) })
	return g.ReplSource.ReplSnapshot()
}

func (g *flipOnce) ReplRead(pos wal.Position, max int) (ReplChunk, error) {
	<-g.open
	chunk, err := g.ReplSource.ReplRead(pos, max)
	if err == nil && len(chunk.Data) > 0 && g.flipped.CompareAndSwap(false, true) {
		chunk.Data = slices.Clone(chunk.Data)
		chunk.Data[len(chunk.Data)-1] ^= 0xff
	}
	return chunk, err
}

// TestFollowerAppliesEachRecordOnceAfterCorruptFrame: three commits on
// CT(C,T) — insert (c1,t1), delete it, insert (c1,t2) — reach the follower
// in one chunk whose last frame is corrupt. The follower applies the two
// good frames, drops the bad one and re-reads from where it stopped, so
// every primary record is applied once: re-reading from before the good
// frames would replay them, taking the state from {} back to {(c1,t1)} and
// journaling the repeats.
func TestFollowerAppliesEachRecordOnceAfterCorruptFrame(t *testing.T) {
	sch := MustParse("CT(C,T)", "C -> T")
	ds, err := sch.OpenDurableStore(t.TempDir(), DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	src := &flipOnce{ReplSource: ds, open: make(chan struct{}), snapped: make(chan struct{})}
	f, err := sch.OpenFollower(t.TempDir(), src, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	openReads := sync.OnceFunc(func() { close(src.open) })
	defer openReads() // before Close, which waits for a read in flight
	select {
	case <-src.snapped:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never bootstrapped")
	}

	base := ds.WAL().Records
	if err := ds.Insert("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	if ok, err := ds.Delete("CT", map[string]string{"C": "c1", "T": "t1"}); !ok || err != nil {
		t.Fatalf("delete: %v, %v", ok, err)
	}
	if err := ds.Insert("CT", map[string]string{"C": "c1", "T": "t2"}); err != nil {
		t.Fatal(err)
	}
	openReads()
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)
	st := f.ReplStats()
	if st.CorruptChunks != 1 {
		t.Fatalf("corrupt chunks %d, want the one flipped", st.CorruptChunks)
	}
	if want := ds.WAL().Records - base; st.AppliedRecords+st.SkippedRecords != want {
		t.Fatalf("follower applied %d and skipped %d records for the primary's %d",
			st.AppliedRecords, st.SkippedRecords, want)
	}
}
