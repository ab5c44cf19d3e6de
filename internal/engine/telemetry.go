package engine

import (
	"log/slog"
	"time"

	"indep/internal/obs"
)

// Telemetry configures the engine's structured logging. Log is the
// destination for slow-operation records (nil disables them); Slow is the
// threshold at or above which an operation's end-to-end latency is logged
// (0 disables). Install once with SetTelemetry before concurrent use.
type Telemetry struct {
	Log  *slog.Logger
	Slow time.Duration
}

// SetTelemetry installs the slow-operation log. Like SetCommitHook, it must
// be called before the engine is used concurrently.
func (e *Engine) SetTelemetry(t Telemetry) { e.tel = t }

// slowHit reports whether an operation of duration d crosses the
// slow-operation threshold. Call sites guard on it before building the
// record's target string, so the hot path never pays for formatting.
func (e *Engine) slowHit(d time.Duration) bool {
	return e.tel.Log != nil && e.tel.Slow > 0 && d >= e.tel.Slow
}

// noteSlow emits one slow-operation record; callers must have checked
// slowHit. what identifies the target (a relation name, or a batch size).
func (e *Engine) noteSlow(op, what, trace string, d time.Duration, err error) {
	args := []any{"op", op, "target", what, "duration", d}
	if trace != "" {
		args = append(args, "trace", trace)
	}
	if err != nil {
		args = append(args, "err", err)
	}
	e.tel.Log.Warn("slow operation", args...)
}

// RegisterMetrics files every engine-level metric family with the registry:
// per-relation operation counters and latency histograms, commit and
// snapshot-cache counters, the query evaluator's plan-cache and
// fast-vs-chase counters, the window-query latency histogram, and the chase
// telemetry. Call once at startup, after New.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	for i := range e.shards {
		sh := &e.shards[i]
		rel := obs.L("relation", e.s.Name(i))
		r.CounterFunc("indep_engine_inserts_total",
			"accepted insert operations (duplicates included)",
			func() uint64 { sh.mu.Lock(); defer sh.mu.Unlock(); return sh.inserts }, rel)
		r.CounterFunc("indep_engine_rejects_total",
			"operations rejected by constraint validation",
			func() uint64 { sh.mu.Lock(); defer sh.mu.Unlock(); return sh.rejects }, rel)
		r.CounterFunc("indep_engine_deletes_total",
			"deletes that removed a tuple",
			func() uint64 { sh.mu.Lock(); defer sh.mu.Unlock(); return sh.deletes }, rel)
		r.GaugeFunc("indep_engine_tuples",
			"live tuples in the relation",
			func() float64 { sh.mu.Lock(); defer sh.mu.Unlock(); return float64(sh.tuples) }, rel)
		r.RegisterHistogram("indep_engine_op_duration_seconds",
			"end-to-end operation latency, lock wait included", 1e-9, &sh.lat, rel)
	}
	r.CounterFunc("indep_engine_commits_total",
		"successful state mutations", e.version.Load)
	fastVal := int64(0)
	if e.fast {
		fastVal = 1
	}
	r.Gauge("indep_engine_fast_path",
		"1 when the schema is independent and writes take per-relation stripes").Set(fastVal)
	r.CounterFunc("indep_engine_snapshot_reuses_total",
		"queries served from the cached snapshot", e.snapReuses.Load)
	r.CounterFunc("indep_engine_snapshot_copies_total",
		"queries that had to cut a fresh snapshot", e.snapCopies.Load)

	ev := e.ev
	r.CounterFunc("indep_query_windows_total",
		"window queries evaluated", func() uint64 { return ev.Stats().Queries })
	r.CounterFunc("indep_query_plan_hits_total",
		"window queries answered from the plan cache", func() uint64 { return ev.Stats().PlanHits })
	r.CounterFunc("indep_query_fast_evals_total",
		"windows evaluated relation-by-relation", func() uint64 { return ev.Stats().FastEvals })
	r.CounterFunc("indep_query_chase_evals_total",
		"windows evaluated by the fallback chase", func() uint64 { return ev.Stats().ChaseEvals })
	r.RegisterHistogram("indep_query_window_duration_seconds",
		"window-query latency: evaluation over a consistent snapshot, then ordering, limiting and rendering or encoding the answer", 1e-9, &e.queryLat)

	e.chaseMet.Register(r)
}
