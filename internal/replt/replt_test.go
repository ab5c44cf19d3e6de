package replt

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"indep"
	"indep/internal/wal"
)

// panel is the window-query oracle panel: windows inside one relation,
// across relations (forcing joins through FACT), and the full universe.
var panel = [][]string{
	{"K1", "A1", "A2"},
	{"K2", "B1"},
	{"K1", "K2"},
	{"K1", "B1"},
	{"K1", "K2", "A1", "A2", "B1"},
}

// testSchema is a small independent star: admission is per-relation, the
// fast path applies, and window queries over the panel exercise joins.
func testSchema(t testing.TB) *indep.Schema {
	t.Helper()
	sch, err := indep.Parse(
		"FACT(K1,K2); DIM1(K1,A1,A2); DIM2(K2,B1)",
		"K1 -> A1 A2; K2 -> B1",
	)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// workload drives n randomized write operations against the primary:
// inserts (sometimes violating, exercising rejection records downstream),
// small batches, and deletes of previously admitted rows.
type workload struct {
	rng  *rand.Rand
	live []indep.BatchOp
}

func (w *workload) step(t *testing.T, ds *indep.DurableStore) {
	t.Helper()
	mkDim1 := func() indep.BatchOp {
		k := fmt.Sprintf("k1-%d", w.rng.Intn(30))
		return indep.BatchOp{Rel: "DIM1", Row: map[string]string{
			"K1": k, "A1": "a" + k, "A2": fmt.Sprintf("x%d", w.rng.Intn(3)),
		}}
	}
	mkDim2 := func() indep.BatchOp {
		k := fmt.Sprintf("k2-%d", w.rng.Intn(30))
		return indep.BatchOp{Rel: "DIM2", Row: map[string]string{"K2": k, "B1": "b" + k}}
	}
	mkFact := func() indep.BatchOp {
		return indep.BatchOp{Rel: "FACT", Row: map[string]string{
			"K1": fmt.Sprintf("k1-%d", w.rng.Intn(30)),
			"K2": fmt.Sprintf("k2-%d", w.rng.Intn(30)),
		}}
	}
	mk := func() indep.BatchOp {
		switch w.rng.Intn(3) {
		case 0:
			return mkDim1()
		case 1:
			return mkDim2()
		default:
			return mkFact()
		}
	}
	switch w.rng.Intn(10) {
	case 0, 1: // delete an admitted row (or a random absent one)
		if len(w.live) > 0 && w.rng.Intn(4) > 0 {
			i := w.rng.Intn(len(w.live))
			if _, err := ds.Delete(w.live[i].Rel, w.live[i].Row); err != nil {
				t.Fatal(err)
			}
			w.live = append(w.live[:i], w.live[i+1:]...)
		} else if _, err := ds.Delete("DIM1", mkDim1().Row); err != nil {
			t.Fatal(err)
		}
	case 2, 3: // batch
		ops := make([]indep.BatchOp, 1+w.rng.Intn(3))
		for i := range ops {
			ops[i] = mk()
		}
		err := ds.InsertBatch(ops)
		if err == nil {
			w.live = append(w.live, ops...)
		} else if !indep.Rejected(err) {
			t.Fatal(err)
		}
	default: // single insert, FD violations tolerated
		op := mk()
		err := ds.Insert(op.Rel, op.Row)
		if err == nil {
			w.live = append(w.live, op)
		} else if !indep.Rejected(err) {
			t.Fatal(err)
		}
	}
}

// requireConverged waits until every follower covers the primary's flushed
// end, then runs the full oracle against each.
func requireConverged(t *testing.T, primary *indep.DurableStore, followers ...*indep.Follower) {
	t.Helper()
	pos := primary.ReplPosition()
	want := primary.Snapshot()
	for i, f := range followers {
		if !f.WaitFor(pos, 20*time.Second) {
			t.Fatalf("follower %d stuck at %s, want %s (stats %+v)", i, f.Applied(), pos, f.ReplStats())
		}
		if diffs := Diverged(want, f.Snapshot(), panel); diffs != nil {
			t.Fatalf("follower %d diverged after %+v:\n  %s",
				i, f.ReplStats(), strings.Join(diffs, "\n  "))
		}
	}
}

// truncateTail chops n bytes off a follower's highest segment, simulating
// bytes the OS never wrote before a kill -9 (NoFsync followers lose them
// legitimately). Chopping may land mid-frame — recovery's torn-tail
// truncation and the REPLPOS validity check both must cope.
func truncateTail(t *testing.T, dir string, n int64) {
	t.Helper()
	seg := lastSegment(t, dir)
	if seg == "" {
		return
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if size := fi.Size(); size-n > int64(wal.SegmentHeaderBytes) {
		if err := os.Truncate(seg, size-n); err != nil {
			t.Fatal(err)
		}
	}
}

// lastSegment returns the path of dir's highest-numbered WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return names[len(names)-1]
}

// runSchedule is one randomized fault schedule: a primary under write load,
// two followers behind independently seeded injectors (the second joining
// mid-run, racing a checkpoint), checkpoints truncating history under live
// cursors, and a follower kill -9 (with local tail loss) plus restart.
func runSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sch := testSchema(t)
	primary, err := sch.OpenDurableStore(t.TempDir(), indep.DurableOptions{
		NoFsync:      true,
		SegmentBytes: int64(2048 + rng.Intn(4096)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	faults := Faults{
		Disconnect: rng.Float64() * 0.10,
		Duplicate:  rng.Float64() * 0.10,
		Reorder:    rng.Float64() * 0.10,
		Short:      rng.Float64() * 0.25,
		Corrupt:    rng.Float64() * 0.10,
	}
	fopts := indep.FollowerOptions{
		NoFsync:      true,
		PollInterval: time.Millisecond,
		ChunkBytes:   64 + rng.Intn(768),
	}
	open := func(dir string) *indep.Follower {
		inj := NewInjector(primary, faults, rand.New(rand.NewSource(rng.Int63())))
		f, err := sch.OpenFollower(dir, inj, fopts)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	dirA, dirB := t.TempDir(), t.TempDir()
	fa, fb := open(dirA), (*indep.Follower)(nil)
	defer func() {
		fa.Close()
		if fb != nil {
			fb.Close()
		}
	}()

	w := &workload{rng: rng}
	steps := 120 + rng.Intn(80)
	for i := 0; i < steps; i++ {
		w.step(t, primary)
		switch {
		case i == steps/2 && fb == nil:
			// Late joiner: its bootstrap snapshot races the checkpoint below.
			fb = open(dirB)
		case rng.Intn(37) == 0:
			if err := primary.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case rng.Intn(53) == 0:
			// kill -9 the first follower mid-replay, losing an arbitrary
			// local tail, then restart it.
			if err := fa.Abort(); err != nil {
				t.Fatal(err)
			}
			truncateTail(t, dirA, int64(rng.Intn(96)))
			fa = open(dirA)
		}
	}
	requireConverged(t, primary, fa, fb)
}

// TestReplFaultSchedules drives the full randomized fault matrix: every
// seed is an independent schedule of writes, checkpoints, kills, and
// transport faults, and every schedule must end with zero divergence.
func TestReplFaultSchedules(t *testing.T) {
	schedules := 104
	if testing.Short() {
		schedules = 12 // CI smoke: fixed seeds 0..11, same oracle
	}
	for s := 0; s < schedules; s++ {
		t.Run(fmt.Sprintf("seed%03d", s), func(t *testing.T) {
			t.Parallel()
			runSchedule(t, int64(s))
		})
	}
}

// copyDir clones a follower's data directory (segments, checkpoints,
// REPLPOS), skipping the advisory LOCK file, into a fresh crash-image dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "LOCK" || !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// frameBoundaries scans a segment file and returns every byte offset that
// ends a complete record frame (the header boundary included).
func frameBoundaries(t *testing.T, seg string) []int64 {
	t.Helper()
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < wal.SegmentHeaderBytes {
		return nil
	}
	bounds := []int64{int64(wal.SegmentHeaderBytes)}
	buf := data[wal.SegmentHeaderBytes:]
	off := int64(wal.SegmentHeaderBytes)
	for len(buf) > 0 {
		_, n, err := wal.NextStreamFrame(buf)
		if errors.Is(err, wal.ErrShortFrame) {
			break // torn tail already present; boundaries end here
		}
		if err != nil {
			t.Fatalf("segment %s corrupt at %d: %v", seg, off, err)
		}
		off += int64(n)
		bounds = append(bounds, off)
		buf = buf[n:]
	}
	return bounds
}

// TestFollowerCrashAtEveryRecordBoundary is the crash-replay property test:
// a caught-up follower's directory is cloned, its final segment truncated
// at every byte offset — each record boundary and every torn offset inside
// each record; with -short, each boundary and one torn offset past it, on
// every fourth boundary — and a follower reopened from each crash image.
// Every image must recover, resume or re-sync, and converge — in
// particular, a record cut anywhere must lose its whole commit, and records
// straddling the persisted-position window must not double-apply (the
// oracle's tuple and window comparison would see any duplicate admission
// that slipped past the guards). The follower bootstraps from a snapshot
// and then streams a second workload phase live, so its log holds the
// bootstrap's records and one record per streamed primary commit.
func TestFollowerCrashAtEveryRecordBoundary(t *testing.T) {
	sch := testSchema(t)
	primary, err := sch.OpenDurableStore(t.TempDir(), indep.DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	w := &workload{rng: rand.New(rand.NewSource(42))}
	for i := 0; i < 40; i++ {
		w.step(t, primary)
	}

	fdir := t.TempDir()
	f, err := sch.OpenFollower(fdir, primary, indep.FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !f.WaitFor(primary.ReplPosition(), 10*time.Second) {
		t.Fatalf("follower never caught up: %+v", f.ReplStats())
	}
	for i := 0; i < 40; i++ {
		w.step(t, primary)
	}
	if !f.WaitFor(primary.ReplPosition(), 10*time.Second) {
		t.Fatalf("follower never caught up with the streamed phase: %+v", f.ReplStats())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, fdir)
	if seg == "" {
		t.Fatal("follower wrote no segments")
	}
	bounds := frameBoundaries(t, seg)
	if len(bounds) < 10 {
		t.Fatalf("only %d boundaries; workload too small to mean anything", len(bounds))
	}
	// A write after the follower stopped ensures every crash image has
	// something left to stream.
	if err := primary.Insert("DIM2", map[string]string{"K2": "k2-final", "B1": "bk2-final"}); err != nil {
		t.Fatal(err)
	}

	var cuts []int64
	if testing.Short() {
		for i := 0; i < len(bounds); i += 4 {
			cuts = append(cuts, bounds[i], bounds[i]+3) // exact boundary, then mid-frame
		}
	} else {
		for cut := bounds[0]; cut <= bounds[len(bounds)-1]; cut++ {
			cuts = append(cuts, cut)
		}
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := copyDir(t, fdir)
			seg := lastSegment(t, dir)
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if cut > fi.Size() {
				t.Skip("past end")
			}
			if err := os.Truncate(seg, cut); err != nil {
				t.Fatal(err)
			}
			f, err := sch.OpenFollower(dir, primary, indep.FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			requireConverged(t, primary, f)
		})
	}
}

// TestInjectorFaultsFire sanity-checks the injector itself: with every rate
// cranked up, each fault class actually triggers, and the follower behind
// it still converges.
func TestInjectorFaultsFire(t *testing.T) {
	sch := testSchema(t)
	primary, err := sch.OpenDurableStore(t.TempDir(), indep.DurableOptions{NoFsync: true, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	// Open the follower first: the workload then streams live through the
	// injector instead of arriving inside the bootstrap snapshot.
	inj := NewInjector(primary, Faults{
		Disconnect: 0.2, Duplicate: 0.2, Reorder: 0.2, Short: 0.3, Corrupt: 0.2,
	}, rand.New(rand.NewSource(7)))
	f, err := sch.OpenFollower(t.TempDir(), inj, indep.FollowerOptions{
		NoFsync: true, PollInterval: time.Millisecond, ChunkBytes: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Keep the stream busy until every fault class has fired at least once
	// (bounded: each class holds ≥10% of the per-read roll).
	w := &workload{rng: rand.New(rand.NewSource(7))}
	deadline := time.Now().Add(20 * time.Second)
	for {
		for i := 0; i < 50; i++ {
			w.step(t, primary)
		}
		st := inj.Stats()
		if st.Disconnects > 0 && st.Duplicates > 0 && st.Shorts > 0 && st.Corrupts > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fault classes missed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	requireConverged(t, primary, f)
	fs := f.ReplStats()
	if fs.CorruptChunks == 0 && fs.DroppedChunks == 0 {
		t.Fatalf("follower observed no faults: %+v", fs)
	}
}
