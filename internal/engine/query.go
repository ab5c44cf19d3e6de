package engine

import (
	"context"
	"strings"
	"time"

	"indep/internal/attrset"
	"indep/internal/obs"
	"indep/internal/query"
	"indep/internal/relation"
)

// cachedSnapshot pairs a copied state with the mutation version it was cut
// at and, per relation, the version of the last commit that changed it.
// While the engine's version is unchanged the copy is current, so queries
// can share it without taking any state lock; after a write, each relation
// whose stripe still carries its version is current too.
type cachedSnapshot struct {
	version  uint64
	versions []uint64
	st       *relation.State
}

// QuerySnapshot returns a consistent state for lock-free reading. If no
// mutation has landed since the last call the cached copy is returned
// without touching a single lock — the common case under read-heavy load —
// otherwise a new snapshot is cut (briefly holding the state locks, as
// Snapshot does) and cached. The new cut shares the cached instance of
// every relation no commit changed since, with the indexes its windows
// built, and cuts each changed relation as a successor of its cached copy,
// so its match indexes are the cached ones plus the buckets the write
// touched. The returned state is shared: callers must treat it as
// immutable.
func (e *Engine) QuerySnapshot() *relation.State {
	st, _, _ := e.querySnapshot()
	return st
}

// querySnapshot is QuerySnapshot reporting whether the cached copy was
// reused and which mutation version the returned state reflects — the
// numbers window EXPLAIN surfaces.
func (e *Engine) querySnapshot() (st *relation.State, reused bool, version uint64) {
	if c := e.snapCache.Load(); c != nil && c.version == e.version.Load() {
		e.snapReuses.Add(1)
		return c.st, true, c.version
	}
	e.snapCopies.Add(1)
	c := e.cut(nil, e.snapCache.Load())
	// A concurrent QuerySnapshot may store a newer cut first and this store
	// may regress the cache; that is harmless — the stale entry just fails
	// the version check on the next call, and any cached cut is a valid
	// predecessor.
	e.snapCache.Store(c)
	return c.st, false, c.version
}

// Evaluator returns the engine's window-query evaluator, which New built
// from the decision the engine holds, its accepted Loop runs included.
// Snapshot-backed databases reuse it so plans compile once per engine, not
// per view.
func (e *Engine) Evaluator() *query.Evaluator { return e.ev }

// ObserveWindow records one window answer that took d: its latency in the
// window histogram and, past the slow threshold, a slow-query log record.
// A caller of WindowMetaCtx reports the whole answer through it, ordering
// and encoding included.
func (e *Engine) ObserveWindow(ctx context.Context, x attrset.Set, d time.Duration, err error) {
	e.queryLat.Observe(int64(d))
	if e.slowHit(d) {
		e.noteSlow("window", e.s.U.Format(x, ""), obs.Trace(ctx), d, err)
	}
}

// WindowMeta reports how one window evaluation was served. Explain is
// non-nil when the caller asked for it (or the request is traced — a trace
// *is* the explain output).
type WindowMeta struct {
	SnapshotReused bool   // served from the cached snapshot, no locks taken
	Version        uint64 // mutation version the snapshot reflects
	Explain        *query.Explain
}

// WindowMetaCtx computes the window [x], the X-total projection of the
// representative instance, under a selection (attribute → value-name
// conditions, resolved through the snapshot's dictionary). It evaluates
// over a consistent snapshot without a state lock, so it never blocks a
// writer nor sees a half-applied batch, and returns that snapshot, for
// rendering values, with its reuse and, when explain is set, the executed
// plan. When the context carries an active span the evaluation records an
// engine.window span whose attributes are the explain output: mode,
// plan-cache hit, snapshot reuse, consulted relations with rows scanned,
// and pruned relations. It records no latency: the caller times the answer it builds
// from the result and reports it through ObserveWindow.
func (e *Engine) WindowMetaCtx(ctx context.Context, x attrset.Set, where map[int]string, explain bool) (*query.Result, *relation.State, WindowMeta, error) {
	sp := obs.SpanFrom(ctx).StartChild("engine.window")
	st, reused, version := e.querySnapshot()
	res, err := e.ev.Query(st, x, query.Resolve(st.Dict, where))
	meta := WindowMeta{SnapshotReused: reused, Version: version}
	if err == nil && (explain || sp.Recording()) {
		meta.Explain = e.ev.Explain(res, st)
	}
	if sp.Recording() {
		sp.SetAttr("window", e.s.U.Format(x, " "))
		sp.SetInt("snapshot_version", int64(version))
		sp.SetInt("snapshot_reused", boolInt(reused))
		if ex := meta.Explain; ex != nil {
			sp.SetAttr("plan", ex.Mode)
			sp.SetInt("plan_cached", boolInt(ex.PlanCached))
			scanned := int64(0)
			names := make([]string, len(ex.Relations))
			for i, rs := range ex.Relations {
				scanned += int64(rs.Rows)
				names[i] = rs.Relation
			}
			sp.SetInt("rows_scanned", scanned)
			sp.SetAttr("relations", strings.Join(names, " "))
			if len(ex.Pruned) > 0 {
				sp.SetAttr("pruned", strings.Join(ex.Pruned, " "))
			}
			sp.SetInt("rows", int64(res.Rows.Len()))
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	sp.End()
	if err != nil {
		return nil, nil, WindowMeta{}, err
	}
	return res, st, meta, nil
}

// boolInt renders a bool as a span attribute value.
func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// QueryStats extends the evaluator's counters with the snapshot cache's.
type QueryStats struct {
	query.Stats
	SnapshotReuses uint64 // queries served from the cached snapshot
	SnapshotCopies uint64 // queries that had to cut a fresh snapshot
}

// QueryStats returns the engine's query-side counters.
func (e *Engine) QueryStats() QueryStats {
	return QueryStats{
		Stats:          e.ev.Stats(),
		SnapshotReuses: e.snapReuses.Load(),
		SnapshotCopies: e.snapCopies.Load(),
	}
}
