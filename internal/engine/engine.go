// Package engine is a thread-safe, sharded maintenance engine layered on
// internal/maintenance. It exists because independence is exactly what makes
// constraint maintenance parallelizable: for an independent schema each
// relation's guard touches only that relation's FD indexes and instance, so
// inserts into different relations can validate concurrently behind
// per-relation lock stripes with no global coordination. Non-independent
// schemas still work — every operation serializes through the chase
// maintainer under one mutex, which is the honest cost Theorem 1 imposes.
//
// On top of the maintainers the engine adds atomic batch inserts, deletes
// (always admissible: SAT is closed under subsets), consistent snapshot
// reads over the maintainer's sharded, append-only value dictionary, and
// per-relation statistics with validate-latency percentiles.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/maintenance"
	"indep/internal/obs"
	"indep/internal/query"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/wal"
)

// Op is a single tuple operation addressed to a scheme — an insert, or a
// delete when Delete is set — the unit of Apply.
type Op = maintenance.Op

// Result is what ApplyPartial did (see maintenance.Result).
type Result = maintenance.Result

// Commit describes one successful state mutation: the ops that actually
// changed the state (duplicates and no-op deletes are excluded) in applied
// order, inserts before deletes. Trace carries the request trace ID that
// caused the mutation ("" when none) so the durability layer can tag its
// fsync ack with the same ID the HTTP access log printed. Span, when
// non-nil, is the request's engine-operation span; the durability layer
// hangs its WAL append and fsync-ack child spans off it so a traced insert
// shows its full write path (every *obs.Span method is nil-safe, so hooks
// may use it unconditionally).
type Commit struct {
	Ops   []Op
	Trace string
	Span  *obs.Span
}

// CommitHook observes every successful mutation. It is invoked while the
// locks protecting the mutated relations are still held — per-relation
// commit order therefore matches hook order, which is what makes the hook
// a valid redo-log feed. The hook must be fast and must not re-enter the
// engine; it may return a wait function, which the engine calls after
// releasing the locks (e.g. to await an fsync) and whose error is returned
// to the caller. Note a wait error does NOT roll back the in-memory
// mutation: the caller is told the durability guarantee failed and should
// retire the engine.
type CommitHook func(c Commit) (wait func() error)

// Engine is a concurrent maintained database. Create with New; all methods
// are safe for concurrent use.
type Engine struct {
	s    *schema.Schema
	res  *independence.Result
	dict *relation.Dict // the maintainer state's; every snapshot shares it

	// Fast path (independent schemas): shards[i].mu guards both the guard's
	// per-scheme data (FD indexes and instance i) and shards[i]'s stats.
	fast  bool
	guard *maintenance.Guard

	// Chase path (everything else): mu serializes all state access; shard
	// mutexes guard only stats. Lock order is always mu before shard.mu.
	mu    sync.Mutex
	chase *maintenance.ChaseMaintainer

	// hook, when set, observes successful mutations (see CommitHook). Set
	// once before concurrent use; nil checks are unsynchronized.
	hook CommitHook

	// version counts successful mutations; commit bumps it under the same
	// locks that guard the mutated relations. Together with snapCache it
	// lets the query path reuse a snapshot for as long as no write lands
	// in between (see QuerySnapshot).
	version    atomic.Uint64
	snapCache  atomic.Pointer[cachedSnapshot]
	snapReuses atomic.Uint64
	snapCopies atomic.Uint64

	// ev is the window-query evaluator, built by New from the decision.
	ev *query.Evaluator

	// chaseMet collects telemetry from every chase run under the engine's
	// caps (maintainer and query fallback); queryLat is the window-query
	// latency histogram; tel is the slow-operation log (see SetTelemetry).
	chaseMet *chase.Metrics
	queryLat obs.Histogram
	tel      Telemetry

	shards []shard
}

// shard is the per-relation lock stripe with its operation counters. The
// latency histogram is lock-free and may be observed or snapshotted without
// holding mu.
type shard struct {
	mu      sync.Mutex
	tuples  int64
	inserts uint64
	rejects uint64
	deletes uint64
	lat     obs.Histogram // end-to-end op latency in nanoseconds
}

// New analyzes the schema and opens an empty concurrent engine: lock-striped
// guards when the independence test accepts, a serialized chase maintainer
// otherwise.
func New(s *schema.Schema, fds fd.List, caps chase.Caps) (*Engine, error) {
	res, err := independence.Decide(s, fds)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		s:        s,
		res:      res,
		chaseMet: &chase.Metrics{},
		shards:   make([]shard, len(s.Rels)),
	}
	// Thread the telemetry sink through the caps so the maintainer's and
	// the query evaluator's internal chases report into it.
	caps.Metrics = e.chaseMet
	if res.Independent {
		e.fast = true
		e.guard = maintenance.NewGuard(s, res.Cover)
		e.dict = e.guard.State().Dict
	} else {
		e.chase = maintenance.NewChaseMaintainer(s, fds, res.JD, caps)
		e.dict = e.chase.State().Dict
	}
	e.ev = query.NewEvaluator(s, fds, res, caps)
	return e, nil
}

// Fast reports whether the engine validates through per-relation lock
// stripes (independent schema) rather than the serialized chase.
func (e *Engine) Fast() bool { return e.fast }

// Result returns the independence analysis the engine was built from.
func (e *Engine) Result() *independence.Result { return e.res }

// Schema returns the engine's schema.
func (e *Engine) Schema() *schema.Schema { return e.s }

// Dict returns the engine's value dictionary, the one its state and every
// snapshot share; use it to intern row values before building tuples.
func (e *Engine) Dict() *relation.Dict { return e.dict }

// SetCommitHook installs the mutation observer. Install it after recovery
// (replayed records fire no hook only because none is set yet) and before
// the engine is used concurrently.
func (e *Engine) SetCommitHook(h CommitHook) { e.hook = h }

// commit runs the hook (if any) for a successful mutation and returns the
// wait function to invoke once locks are released. The caller holds the
// locks guarding the mutated relations; the version bump under those locks
// is what keeps QuerySnapshot's cache coherent.
func (e *Engine) commit(c Commit) func() error {
	e.version.Add(1)
	if e.hook == nil {
		return nil
	}
	return e.hook(c)
}

// Version returns the engine's mutation counter: it bumps once per
// successful commit, under the locks guarding the mutated relations. It is
// a cheap change detector (the query path keys its snapshot cache on it),
// NOT a replication token — the counter restarts from recovery's replay
// count after a reopen, and bumps in different relation stripes are not
// ordered against each other. Cross-restart read-your-writes tokens come
// from the WAL byte position instead (see wal.Position).
func (e *Engine) Version() uint64 { return e.version.Load() }

// MaxBatchOps bounds a single Apply, and a commit of ApplyPartial. The limit
// keeps one batch's lock hold time sane and guarantees a durable store can
// always frame the commit as one decodable log record (the WAL decoder
// enforces its own, larger cap — a record we can write must be one we can
// read back).
const MaxBatchOps = 1 << 16

// Apply applies a batch of inserts and deletes as one atomic mutation and
// reports how many ops changed the state. All inserts are admitted first,
// together — either every tuple is admitted or the state is left unchanged
// and the first violation is returned — and then the deletes are applied
// (always admissible: SAT is closed under subsets). The whole batch takes
// the locks once, bumps Version once and reaches the commit hook as one
// Commit, so readers and the log see all of it or none of it. On the fast
// path it holds the stripe of each relation it touches and nothing else;
// independence guarantees the per-relation checks jointly decide global
// admissibility. On the chase path one trial chase validates all the
// inserts. A batch is limited to MaxBatchOps ops.
//
// Apply is idempotent — a duplicate insert or an absent delete is a no-op.
// Replaying a commit log goes through Replay.
func (e *Engine) Apply(ctx context.Context, ops []Op) (changed int, err error) {
	r, err := e.apply(ctx, "engine.batch", ops, maintenance.Atomic)
	return len(r.Changed), err
}

// ApplyPartial is Apply under maintenance.Partial: the outcome of applying
// each op alone, in order, from one lock hold and one Commit (one log record
// and fsync wait). A new commit starts, under the same hold, where an
// accepted insert follows an accepted delete, since a commit lists its
// inserts first (the order a log record replays in), or at MaxBatchOps ops.
// The ops accepted before an error that stops the walk are committed, and a
// commit-hook wait error covers every commit of the call.
func (e *Engine) ApplyPartial(ctx context.Context, ops []Op) (Result, error) {
	return e.apply(ctx, "engine.partial", ops, maintenance.Partial)
}

// Replay re-applies one logged commit; recovery and the replication
// follower both install records through it. It restores the record's
// bindings, then applies its ops as one commit; if the guards reject that
// commit as a whole, which happens only when replaying a record the state
// already reflects, it applies the record with ApplyPartial, still as one
// commit, and reports the record skipped. Other errors (a contradicting
// binding, a malformed op, a durability failure) are returned. Recovery
// replays before SetCommitHook, so nothing is re-logged; a follower
// re-journals each record into its log.
//
// On the fast path, replaying any contiguous suffix of a log in order, over
// the state the whole log produced, converges, so a follower that lost its
// exact position may replay from any earlier point. A tuple's final presence
// is its last mention; a replayed insert of a tuple later superseded is
// rejected by the current guards; a last-mention insert never is, since a
// guard violation is a conflict between two tuples of one relation and
// every tuple then present that the final state lacks was present when the
// insert was first admitted; and the partial fallback keeps the other
// members of a rejected commit. On the chase path a violation can take
// three tuples (CT(c,t), CD(c,d1), TD(t,d2) under C→T, C→D, T→D), so only a
// whole log replayed from empty is guaranteed to reproduce its state.
func (e *Engine) Replay(ctx context.Context, rec wal.Record) (skipped bool, err error) {
	for _, b := range rec.Interns {
		if err := e.dict.Restore(b.Value, b.Name); err != nil {
			return false, err
		}
	}
	ops := make([]Op, len(rec.Ops))
	for i, op := range rec.Ops {
		ops[i] = Op{Scheme: op.Rel, Tuple: op.Tuple, Delete: op.Delete}
	}
	if _, err := e.Apply(ctx, ops); !errors.Is(err, maintenance.ErrViolation) {
		return false, err
	}
	_, err = e.ApplyPartial(ctx, ops)
	return true, err
}

// Insert validates and adds one tuple. A rejected insert leaves the state
// unchanged and returns an error wrapping maintenance.ErrViolation.
func (e *Engine) Insert(scheme int, t relation.Tuple) error {
	return e.InsertCtx(context.Background(), scheme, t)
}

// InsertCtx is Insert with the context's trace ID attached to the commit, so
// the durability layer and the slow-op log can tie the mutation back to its
// originating request. When the context carries an active span (a sampled
// request), the operation records an engine.insert span with lock-wait and
// validation children.
func (e *Engine) InsertCtx(ctx context.Context, scheme int, t relation.Tuple) error {
	_, err := e.apply(ctx, "engine.insert", []Op{{Scheme: scheme, Tuple: t}}, maintenance.Atomic)
	return err
}

// Delete removes one tuple, reporting whether it was present. Deletions are
// always admissible, so the only errors are malformed operations.
func (e *Engine) Delete(scheme int, t relation.Tuple) (bool, error) {
	return e.DeleteCtx(context.Background(), scheme, t)
}

// DeleteCtx is Delete with the context's trace ID attached to the commit.
func (e *Engine) DeleteCtx(ctx context.Context, scheme int, t relation.Tuple) (bool, error) {
	r, err := e.apply(ctx, "engine.delete", []Op{{Scheme: scheme, Tuple: t, Delete: true}}, maintenance.Atomic)
	return len(r.Changed) == 1, err
}

// InsertBatch is Apply for callers that only insert and do not need the
// changed count.
func (e *Engine) InsertBatch(ops []Op) error {
	_, err := e.Apply(context.Background(), ops)
	return err
}

// apply is the engine's one mutation routine: every write — single insert,
// single delete, batch, partial payload, recovery replay, replication — is a
// call of it, so a feature of the write path (a new lock rule, a new
// statistic, a new hook argument) is added here and nowhere else. span names
// the engine-operation span; p is what a rejected insert does (see
// maintenance.Policy). ops itself is not retained, so a caller's one-element
// literal stays on its stack.
func (e *Engine) apply(ctx context.Context, span string, ops []Op, p maintenance.Policy) (r Result, err error) {
	if len(ops) > MaxBatchOps && p == maintenance.Atomic {
		return r, fmt.Errorf("engine: batch of %d ops exceeds limit %d", len(ops), MaxBatchOps)
	}
	// Check addressing and arity up front so the maintainers can assume
	// well-formed operations.
	for _, op := range ops {
		if op.Scheme < 0 || op.Scheme >= len(e.shards) {
			return r, fmt.Errorf("engine: no scheme %d", op.Scheme)
		}
		if want := e.s.Attrs(op.Scheme).Len(); len(op.Tuple) != want {
			return r, fmt.Errorf("engine: tuple arity %d does not match %s arity %d",
				len(op.Tuple), e.s.Name(op.Scheme), want)
		}
	}
	if len(ops) == 0 {
		return r, nil
	}
	start := time.Now()
	sp := obs.SpanFrom(ctx).StartChild(span)
	// The distinct touched schemes in ascending order — the engine's global
	// lock-acquisition order, shared with SnapshotWith.
	var buf [8]int
	stripes := buf[:0]
	for _, op := range ops {
		if !slices.Contains(stripes, op.Scheme) {
			stripes = append(stripes, op.Scheme)
		}
	}
	slices.Sort(stripes)
	lockStripes := func() {
		for _, s := range stripes {
			e.shards[s].mu.Lock()
		}
	}
	if e.fast {
		lockStripes()
	} else {
		e.mu.Lock()
	}
	if sp.Recording() {
		sp.SetInt("ops", int64(len(ops)))
		if len(stripes) == 1 {
			sp.SetAttr("relation", e.s.Name(stripes[0]))
		} else {
			sp.SetInt("relations", int64(len(stripes)))
		}
		sp.SetInt("lock_wait_ns", time.Since(start).Nanoseconds())
	}
	if e.fast {
		vsp := sp.StartChild("guard.validate")
		r, err = e.guard.Apply(ops, p)
		vsp.End()
	} else {
		vsp := e.startChaseSpan(sp)
		r, err = e.chase.Apply(ops, p)
		e.endChaseSpan(vsp)
	}
	// A commit holds its inserts before its deletes, the order a log record
	// replays in, and at most MaxBatchOps ops; see ApplyPartial.
	var waitBuf [1]func() error
	waits := waitBuf[:0]
	for rest := r.Changed; len(rest) > 0; {
		n := 1
		for n < min(len(rest), MaxBatchOps) && (rest[n].Delete || !rest[n-1].Delete) {
			n++
		}
		if w := e.commit(Commit{Ops: rest[:n], Trace: obs.Trace(ctx), Span: sp}); w != nil {
			waits = append(waits, w)
		}
		rest = rest[n:]
	}
	if !e.fast {
		// On the chase path the stripes guard only the statistics.
		e.mu.Unlock()
		lockStripes()
	}
	d := time.Since(start)
	e.note(ops, p, r, err)
	for _, s := range stripes {
		e.shards[s].lat.Observe(int64(d))
		e.shards[s].mu.Unlock()
	}
	e.endOpSpan(sp, len(r.Changed) > 0, err)
	if e.slowHit(d) {
		target := e.s.Name(stripes[0])
		if len(ops) > 1 {
			target = fmt.Sprintf("%d ops", len(ops))
		}
		e.noteSlow(strings.TrimPrefix(span, "engine."), target, obs.Trace(ctx), d, err)
	}
	for _, wait := range waits {
		if werr := wait(); werr != nil {
			err = werr // a durability failure outranks the walk's own error
		}
	}
	return r, err
}

// note attributes a batch's outcome to the touched shards, whose stripes
// the caller holds: per insert op an accept or a reject, and tuple deltas
// for the ops that changed the state. An insert the batch's error turned
// away — any of a failed Atomic batch, the one a Partial walk stopped at —
// is a reject. Deletes count only when they removed a tuple. Chase budget
// exhaustion is a server-side limit, not a client rejection, and is
// deliberately not counted in rejects.
func (e *Engine) note(ops []Op, p maintenance.Policy, r Result, err error) {
	budget := errors.Is(err, chase.ErrBudget)
	rej := r.Rejected
	for i, op := range ops {
		sh := &e.shards[op.Scheme]
		switch {
		case op.Delete || i >= r.Done && budget:
		case i < r.Done && len(rej) > 0 && rej[0].Index == i:
			sh.rejects++
			rej = rej[1:]
		case i < r.Done:
			sh.inserts++
		case p == maintenance.Atomic || i == r.Done:
			sh.rejects++
		}
	}
	for _, op := range r.Changed {
		sh := &e.shards[op.Scheme]
		if op.Delete {
			sh.deletes++
			sh.tuples--
		} else {
			sh.tuples++
		}
	}
}

// endOpSpan stamps a mutation span's outcome and closes it. An accepted
// mutation invalidates the cached query snapshot — worth surfacing, since
// the next window query pays a fresh snapshot cut for it.
func (e *Engine) endOpSpan(sp *obs.Span, changed bool, err error) {
	if sp.Recording() {
		switch {
		case err != nil:
			sp.SetAttr("outcome", "rejected")
		case !changed:
			sp.SetAttr("outcome", "noop")
		default:
			sp.SetAttr("outcome", "ok")
			sp.SetInt("snapshot_invalidated", 1)
		}
	}
	sp.End()
}

// chaseSpan carries a chase.validate span together with the chase telemetry
// counters read when it opened, so closing it can attribute the counter
// delta to this one validation.
type chaseSpan struct {
	sp              *obs.Span
	rounds0, union0 uint64
}

// startChaseSpan opens a chase.validate child and snapshots the engine's
// chase telemetry (which rides in chase.Caps into every maintainer run).
// Callers hold e.mu, which serializes every chase, so the counter delta is
// exactly this validation's work. Pays nothing when the parent is not
// recording.
func (e *Engine) startChaseSpan(parent *obs.Span) chaseSpan {
	if !parent.Recording() {
		return chaseSpan{}
	}
	return chaseSpan{
		sp:      parent.StartChild("chase.validate"),
		rounds0: e.chaseMet.FDRounds.Value(),
		union0:  e.chaseMet.Unions.Value(),
	}
}

// endChaseSpan records the chase-round and union deltas and closes the
// span; callers still hold e.mu.
func (e *Engine) endChaseSpan(c chaseSpan) {
	if !c.sp.Recording() {
		return
	}
	c.sp.SetInt("chase_fd_rounds", int64(e.chaseMet.FDRounds.Value()-c.rounds0))
	c.sp.SetInt("chase_unions", int64(e.chaseMet.Unions.Value()-c.union0))
	c.sp.End()
}

// Snapshot returns a copy of the current state's tuples: a consistent cut
// that no later operation mutates. Its Dict is the engine's own, shared and
// not copied: the dictionary only appends, so the cut's tuples render and
// resolve names exactly as they did at the cut, and a name bound later
// resolves to a value none of them holds.
func (e *Engine) Snapshot() *relation.State { return e.SnapshotWith(nil) }

// SnapshotWith is Snapshot with a cut callback: fn (when non-nil) runs
// while every state lock is held, i.e. at a point where no mutation is in
// flight and every completed mutation's commit hook has already run.
// Durable stores use it to mark a log position that exactly matches the
// snapshot — the foundation of checkpointing.
func (e *Engine) SnapshotWith(fn func()) *relation.State {
	var st *relation.State
	if e.fast {
		for i := range e.shards {
			e.shards[i].mu.Lock()
		}
		if fn != nil {
			fn()
		}
		st = e.guard.State().Clone()
		for i := range e.shards {
			e.shards[i].mu.Unlock()
		}
	} else {
		e.mu.Lock()
		if fn != nil {
			fn()
		}
		st = e.chase.State().Clone()
		e.mu.Unlock()
	}
	return st
}

// Rows returns the total number of tuples across all relations.
func (e *Engine) Rows() int64 {
	var n int64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += sh.tuples
		sh.mu.Unlock()
	}
	return n
}

// RelationStats is a point-in-time view of one relation's operation
// counters. Latency quantiles come from the relation's log2-bucketed
// histogram — the same histogram /metrics exposes — and cover every
// operation since the engine opened. They measure the full end-to-end
// operation, lock wait included, so under contention they report what
// callers actually experience, not the bare validation cost.
type RelationStats struct {
	Relation string
	Tuples   int64
	Inserts  uint64        // accepted insert operations (duplicates included)
	Rejects  uint64        // rejected operations
	Deletes  uint64        // deletes that removed a tuple
	P50      time.Duration // end-to-end op latency, incl. lock wait
	P90      time.Duration
	P99      time.Duration
	P999     time.Duration
}

// Stats returns per-relation statistics in scheme order.
func (e *Engine) Stats() []RelationStats {
	out := make([]RelationStats, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		snap := sh.lat.Snapshot()
		sh.mu.Lock()
		out[i] = RelationStats{
			Relation: e.s.Name(i),
			Tuples:   sh.tuples,
			Inserts:  sh.inserts,
			Rejects:  sh.rejects,
			Deletes:  sh.deletes,
		}
		sh.mu.Unlock()
		p50, p90, p99, p999 := snap.Quantiles()
		out[i].P50 = time.Duration(p50)
		out[i].P90 = time.Duration(p90)
		out[i].P99 = time.Duration(p99)
		out[i].P999 = time.Duration(p999)
	}
	return out
}
