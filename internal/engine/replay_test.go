package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"indep/internal/maintenance"
	"indep/internal/relation"
	"indep/internal/wal"
)

// sortedTuples returns an instance's tuples in a canonical order, for
// set-wise comparison.
func sortedTuples(in *relation.Instance) []relation.Tuple {
	out := make([]relation.Tuple, len(in.Rows()))
	for i, t := range in.Rows() {
		out[i] = t.Clone()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// requireStatesEqual fails unless the two states hold identical tuple sets
// per relation.
func requireStatesEqual(t *testing.T, label string, a, b *relation.State) {
	t.Helper()
	if len(a.Insts) != len(b.Insts) {
		t.Fatalf("%s: instance counts differ: %d vs %d", label, len(a.Insts), len(b.Insts))
	}
	for i := range a.Insts {
		at, bt := sortedTuples(a.Insts[i]), sortedTuples(b.Insts[i])
		if len(at) != len(bt) {
			t.Fatalf("%s: relation %d sizes differ: %d vs %d", label, i, len(at), len(bt))
		}
		for j := range at {
			if !slices.Equal(at[j], bt[j]) {
				t.Fatalf("%s: relation %d tuple %d differs: %v vs %v", label, i, j, at[j], bt[j])
			}
		}
	}
}

// genLog drives a fresh engine through a randomized single-threaded
// workload — inserts, batches, deletes and, when mixed is set, commits that
// insert and delete at once, including conflicting re-inserts after deletes
// so re-validation rejections appear during replay — and returns the engine
// plus the exact commit log the hook observed. Without mixed, a seed yields
// the same log it always has: the draw that would make a mixed commit makes
// a single insert.
func genLog(t *testing.T, open func(testing.TB) *Engine, rng *rand.Rand, ops int, mixed bool) (*Engine, []Commit) {
	t.Helper()
	e := open(t)
	var log []Commit
	e.SetCommitHook(func(c Commit) func() error {
		// Deep-copy: the engine may reuse tuple memory after the hook.
		cc := Commit{Ops: make([]Op, len(c.Ops))}
		for i, op := range c.Ops {
			cc.Ops[i] = Op{Scheme: op.Scheme, Tuple: op.Tuple.Clone(), Delete: op.Delete}
		}
		log = append(log, cc)
		return nil
	})

	rels := len(e.Schema().Rels)
	var live []Op // tuples believed present, for targeted deletes
	for i := 0; i < ops; i++ {
		rel := rng.Intn(rels)
		width := e.Schema().Attrs(rel).Len()
		mk := func() relation.Tuple {
			tp := make(relation.Tuple, width)
			for k := range tp {
				tp[k] = e.Dict().Value(fmt.Sprintf("v%d_%d", k, rng.Intn(6)))
			}
			return tp
		}
		switch c := rng.Intn(10); {
		case c < 2: // delete a previously inserted tuple (or a random absent one)
			if len(live) > 0 && rng.Intn(4) > 0 {
				j := rng.Intn(len(live))
				if _, err := e.Delete(live[j].Scheme, live[j].Tuple); err != nil {
					t.Fatal(err)
				}
				live = append(live[:j], live[j+1:]...)
			} else if _, err := e.Delete(rel, mk()); err != nil {
				t.Fatal(err)
			}
		case c < 4 || c == 4 && mixed: // batch insert; in case 4, a mixed commit that also deletes
			n := 1 + rng.Intn(3)
			batch := make([]Op, 0, n)
			for j := 0; j < n; j++ {
				r := rng.Intn(rels)
				tp := make(relation.Tuple, e.Schema().Attrs(r).Len())
				for k := range tp {
					tp[k] = e.Dict().Value(fmt.Sprintf("v%d_%d", k, rng.Intn(6)))
				}
				batch = append(batch, Op{Scheme: r, Tuple: tp})
			}
			kept := live
			if c == 4 && len(live) > 0 {
				kept = nil
				for _, op := range live {
					if rng.Intn(3) == 0 {
						batch = append(batch, Op{Scheme: op.Scheme, Tuple: op.Tuple, Delete: true})
					} else {
						kept = append(kept, op)
					}
				}
			}
			_, err := e.Apply(context.Background(), batch)
			if err == nil {
				live = kept
				for _, op := range batch {
					if !op.Delete {
						live = append(live, op)
					}
				}
			} else if !errors.Is(err, maintenance.ErrViolation) {
				t.Fatal(err)
			}
		default: // single insert
			op := Op{Scheme: rel, Tuple: mk()}
			err := e.Insert(op.Scheme, op.Tuple)
			if err == nil {
				live = append(live, op)
			} else if !errors.Is(err, maintenance.ErrViolation) {
				t.Fatal(err)
			}
		}
	}
	return e, log
}

// record renders a commit as the log record a durable store writes for it
// (bindings aside: seedDict installs those up front).
func record(c Commit) wal.Record {
	rec := wal.Record{Ops: make([]wal.TupleOp, len(c.Ops))}
	for i, op := range c.Ops {
		rec.Ops[i] = wal.TupleOp{Rel: op.Scheme, Tuple: op.Tuple, Delete: op.Delete}
	}
	return rec
}

// replayLog replays commits through Replay, the routine recovery and the
// replication follower share.
func replayLog(t *testing.T, e *Engine, log []Commit) {
	t.Helper()
	for _, c := range log {
		if _, err := e.Replay(context.Background(), record(c)); err != nil {
			t.Fatalf("Replay: %v", err)
		}
	}
}

// TestApplySuffixReplayConverges is the convergence property WAL
// replication rests on. On the fast path, starting from the state the full
// log produces, replaying any contiguous suffix of the log in order leaves
// the state unchanged — duplicate inserts no-op, absent deletes no-op,
// re-inserts of superseded tuples are rejected by the guards, and a
// multi-op commit rejected as a whole still keeps its other members. The
// chase path has the property on the single-op logs it has always been
// checked on (every sixteenth suffix of eight seeds), but not on every log
// (see Replay): with mixed commits it is held only to reproducing the state
// from empty, and its suffix replays only to raising no error.
func TestApplySuffixReplayConverges(t *testing.T) {
	chase := func(tb testing.TB) *Engine {
		e, _ := openExample1(tb)
		return e
	}
	paths := []struct {
		name     string
		open     func(testing.TB) *Engine
		mixed    bool // the log holds mixed commits
		stride   bool // replay every sixteenth suffix rather than every one
		converge bool // suffix replays must converge
	}{
		{"fast", openUniversity, true, false, true},
		{"chase", chase, false, true, true},
		{"chase-mixed", chase, true, false, false},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			mixed := 0
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				src, log := genLog(t, p.open, rng, 120, p.mixed)
				want := src.Snapshot()
				for _, c := range log {
					if len(c.Ops) > 1 && slices.ContainsFunc(c.Ops, func(op Op) bool { return op.Delete }) {
						mixed++
					}
				}

				// A fresh engine replaying the log reaches the same state
				// (the recovery and follower catch-up case).
				replica := p.open(t)
				seedDict(t, replica, src)
				replayLog(t, replica, log)
				requireStatesEqual(t, fmt.Sprintf("seed %d full replay", seed), want, replica.Snapshot())

				// Replaying a suffix, in order, changes nothing (the
				// duplicate-delivery / lost-position case).
				step := 1
				if p.stride {
					step += len(log) / 16
				}
				for start := 0; start <= len(log); start += step {
					replayLog(t, replica, log[start:])
					if p.converge {
						requireStatesEqual(t, fmt.Sprintf("seed %d suffix from %d", seed, start),
							want, replica.Snapshot())
					}
				}
			}
			if p.mixed && mixed == 0 {
				t.Fatal("the generated logs hold no mixed commit")
			}
		})
	}

	// The case the per-op fallback exists for, on COURSE(C,T,D) with C->T:
	// insert b; delete b; insert {b, c}; delete c; insert c', where c'
	// gives c's course another teacher. Replaying commits 2–5 over the
	// final state {b, c'} deletes b, then finds {b, c} rejected as a whole
	// (c conflicts with c'); applied whole-or-nothing, b would stay lost.
	t.Run("course-overlap", func(t *testing.T) {
		src := openUniversity(t)
		var log []Commit
		src.SetCommitHook(func(c Commit) func() error {
			log = append(log, Commit{Ops: slices.Clone(c.Ops)})
			return nil
		})
		b := tuple(src, "cs101", "jones", "cs")
		c := tuple(src, "cs102", "smith", "ee")
		c2 := tuple(src, "cs102", "brown", "ee")
		ctx := context.Background()
		for _, ops := range [][]Op{
			{{Scheme: 0, Tuple: b}},
			{{Scheme: 0, Tuple: b, Delete: true}},
			{{Scheme: 0, Tuple: b}, {Scheme: 0, Tuple: c}},
			{{Scheme: 0, Tuple: c, Delete: true}},
			{{Scheme: 0, Tuple: c2}},
		} {
			if _, err := src.Apply(ctx, ops); err != nil {
				t.Fatal(err)
			}
		}
		if len(log) != 5 {
			t.Fatalf("%d commits, want 5", len(log))
		}
		want := src.Snapshot()
		replica := openUniversity(t)
		seedDict(t, replica, src)
		replayLog(t, replica, log)
		replayLog(t, replica, log[1:])
		requireStatesEqual(t, "course overlap", want, replica.Snapshot())
		if skipped, err := replica.Replay(ctx, record(log[2])); err != nil || !skipped {
			t.Fatalf("replaying {b, c} over {b, c'}: skipped %v, err %v; want a skip", skipped, err)
		}
	})
}

// seedDict copies the source engine's interned bindings into the replica,
// the way checkpoint installation does, so tuples mean the same values.
func seedDict(t *testing.T, replica, src *Engine) {
	t.Helper()
	st := src.Snapshot()
	var entries []struct {
		v relation.Value
		n string
	}
	st.Dict.Each(func(v relation.Value, name string) {
		entries = append(entries, struct {
			v relation.Value
			n string
		}{v, name})
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].v < entries[j].v })
	for _, e := range entries {
		if err := replica.Dict().Restore(e.v, e.n); err != nil {
			t.Fatalf("Restore(%d, %q): %v", e.v, e.n, err)
		}
	}
}

// TestApplyBatchRejectLeavesStateUnchanged pins the batch atomicity Apply
// relies on: when one member of a replayed batch is rejected by the current
// guards, no member mutates the state.
func TestApplyBatchRejectLeavesStateUnchanged(t *testing.T) {
	e := openUniversity(t)
	// COURSE(C,T,D) with C->T: bind cs101 to jones.
	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	_, err := e.Apply(context.Background(), []Op{
		{Scheme: 0, Tuple: tuple(e, "cs102", "smith", "cs")}, // would be new
		{Scheme: 0, Tuple: tuple(e, "cs101", "smith", "cs")}, // violates C->T
	})
	if !errors.Is(err, maintenance.ErrViolation) {
		t.Fatalf("want violation, got %v", err)
	}
	requireStatesEqual(t, "rejected batch", before, e.Snapshot())
	if e.Snapshot().TupleCount() != 1 {
		t.Fatalf("tuple count %d, want 1", e.Snapshot().TupleCount())
	}
}

// TestVersionBumpsPerCommit pins Version() semantics: one bump per
// successful mutation, none for rejected or no-op-delete operations.
func TestVersionBumpsPerCommit(t *testing.T) {
	e := openUniversity(t)
	v0 := e.Version()
	if err := e.Insert(0, tuple(e, "cs101", "jones", "cs")); err != nil {
		t.Fatal(err)
	}
	if got := e.Version(); got != v0+1 {
		t.Fatalf("after insert: version %d, want %d", got, v0+1)
	}
	if err := e.Insert(0, tuple(e, "cs101", "smith", "cs")); !errors.Is(err, maintenance.ErrViolation) {
		t.Fatalf("want violation, got %v", err)
	}
	if got := e.Version(); got != v0+1 {
		t.Fatalf("after rejected insert: version %d, want %d", got, v0+1)
	}
	if ok, err := e.Delete(0, tuple(e, "cs999", "x", "y")); err != nil || ok {
		t.Fatalf("absent delete: ok %v err %v", ok, err)
	}
	if got := e.Version(); got != v0+1 {
		t.Fatalf("after absent delete: version %d, want %d", got, v0+1)
	}
	if ok, err := e.Delete(0, tuple(e, "cs101", "jones", "cs")); err != nil || !ok {
		t.Fatalf("delete: ok %v err %v", ok, err)
	}
	if got := e.Version(); got != v0+2 {
		t.Fatalf("after delete: version %d, want %d", got, v0+2)
	}
	// A mixed batch — inserts in two relations and a delete — is one commit.
	if err := e.Insert(3, tuple(e, "s1", "ann", "2")); err != nil {
		t.Fatal(err)
	}
	changed, err := e.Apply(context.Background(), []Op{
		{Scheme: 3, Tuple: tuple(e, "s1", "ann", "2"), Delete: true},
		{Scheme: 0, Tuple: tuple(e, "cs102", "smith", "ee")},
		{Scheme: 3, Tuple: tuple(e, "s2", "bob", "1")},
	})
	if err != nil || changed != 3 {
		t.Fatalf("mixed batch: changed %d err %v", changed, err)
	}
	if got := e.Version(); got != v0+4 {
		t.Fatalf("after mixed batch: version %d, want %d", got, v0+4)
	}
}
