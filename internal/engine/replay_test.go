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
// workload — inserts, batches, deletes, including conflicting re-inserts
// after deletes so re-validation rejections appear during replay — and
// returns the engine plus the exact commit log the hook observed.
func genLog(t *testing.T, open func(testing.TB) *Engine, rng *rand.Rand, ops int) (*Engine, []Commit) {
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
		switch rng.Intn(10) {
		case 0, 1: // delete a previously inserted tuple (or a random absent one)
			if len(live) > 0 && rng.Intn(4) > 0 {
				j := rng.Intn(len(live))
				if _, err := e.Delete(live[j].Scheme, live[j].Tuple); err != nil {
					t.Fatal(err)
				}
				live = append(live[:j], live[j+1:]...)
			} else if _, err := e.Delete(rel, mk()); err != nil {
				t.Fatal(err)
			}
		case 2, 3: // batch insert
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
			err := e.InsertBatch(batch)
			if err == nil {
				live = append(live, batch...)
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

// applyLog replays commits through Apply, tolerating re-validation
// rejections (the skippable outcome replication and recovery share).
func applyLog(t *testing.T, e *Engine, log []Commit) {
	t.Helper()
	for _, c := range log {
		if _, err := e.Apply(context.Background(), c.Ops); err != nil && !errors.Is(err, maintenance.ErrViolation) {
			t.Fatalf("Apply: %v", err)
		}
	}
}

// TestApplySuffixReplayConverges is the convergence property WAL
// replication rests on: starting from the state the full log produces,
// re-applying any contiguous suffix of the log in order leaves the state
// unchanged — duplicate inserts no-op, absent deletes no-op, and re-inserts
// of superseded tuples are rejected by the guards. Both admission paths
// (fast lock-striped guards and the serialized chase) must satisfy it.
func TestApplySuffixReplayConverges(t *testing.T) {
	paths := []struct {
		name string
		open func(testing.TB) *Engine
	}{
		{"fast", openUniversity},
		{"chase", func(tb testing.TB) *Engine {
			e, _ := openExample1(tb)
			return e
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				src, log := genLog(t, p.open, rng, 120)
				want := src.Snapshot()

				// A fresh engine replaying the log reaches the same state
				// (the follower catch-up case).
				replica := p.open(t)
				seedDict(t, replica, src)
				applyLog(t, replica, log)
				requireStatesEqual(t, fmt.Sprintf("seed %d full replay", seed), want, replica.Snapshot())

				// Re-applying every suffix, in order, changes nothing (the
				// duplicate-delivery / lost-position case).
				for start := 0; start <= len(log); start += 1 + len(log)/16 {
					applyLog(t, replica, log[start:])
					requireStatesEqual(t, fmt.Sprintf("seed %d suffix from %d", seed, start),
						want, replica.Snapshot())
				}
			}
		})
	}
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
