package indep

import (
	"context"
	"log/slog"
	"time"

	"indep/internal/chase"
	"indep/internal/engine"
	"indep/internal/obs"
	"indep/internal/relation"
)

// ConcurrentStore is a thread-safe maintained database built on the sharded
// engine. For an independent schema every relation validates behind its own
// lock stripe, so inserts into different relations proceed concurrently —
// the paper's locality payoff turned into parallelism. For any other schema
// operations serialize through the chase maintainer, so every schema works;
// FastPath reports which regime is active.
//
// All methods are safe for concurrent use by any number of goroutines.
type ConcurrentStore struct {
	schema   *Schema
	eng      *engine.Engine
	analysis *Analysis
}

// OpenConcurrentStore analyzes the schema and opens an empty concurrent
// maintained database.
func (s *Schema) OpenConcurrentStore() (*ConcurrentStore, error) {
	eng, err := engine.New(s.s, s.fds, chase.DefaultCaps)
	if err != nil {
		return nil, err
	}
	return &ConcurrentStore{schema: s, eng: eng, analysis: s.newAnalysis(eng.Result())}, nil
}

// FastPath reports whether the store validates through per-relation lock
// stripes (independent schema) rather than the serialized chase.
func (cs *ConcurrentStore) FastPath() bool { return cs.eng.Fast() }

// Analysis returns the independence analysis the store was opened with.
func (cs *ConcurrentStore) Analysis() *Analysis { return cs.analysis }

// Insert validates and adds a row. A rejected insert leaves the state
// unchanged and returns an error wrapping ErrRejected (test with Rejected).
//
// Values are interned before validation, so the dictionary retains names
// from rejected inserts too: validation has to compare the candidate's
// values against existing bindings, and interning is what makes that
// comparison O(1). Deletes, by contrast, never intern (see Delete).
func (cs *ConcurrentStore) Insert(rel string, row map[string]string) error {
	return cs.InsertCtx(context.Background(), rel, row)
}

// InsertCtx is Insert with the context's trace ID (obs.WithTrace) attached
// to the mutation, so a durable store's fsync ack and any slow-operation
// record carry the same ID as the caller's access log.
func (cs *ConcurrentStore) InsertCtx(ctx context.Context, rel string, row map[string]string) error {
	ctx, sp := obs.StartSpan(ctx, "store.insert")
	if sp.Recording() {
		sp.SetAttr("relation", rel)
	}
	defer sp.End()
	i, t, err := rowTuple(cs.schema.s, cs.eng.Dict().Value, rel, row)
	if err != nil {
		return err
	}
	return cs.eng.InsertCtx(ctx, i, t)
}

// Delete removes a row, reporting whether it was present. Deletions are
// always admissible (satisfaction is closed under subsets), so the only
// errors are malformed rows. Values are looked up, never interned: a row
// mentioning a value the store has never seen cannot be present, so the
// dictionary does not grow on (possibly adversarial) misses.
func (cs *ConcurrentStore) Delete(rel string, row map[string]string) (bool, error) {
	return cs.DeleteCtx(context.Background(), rel, row)
}

// DeleteCtx is Delete with the context's trace ID attached to the mutation.
func (cs *ConcurrentStore) DeleteCtx(ctx context.Context, rel string, row map[string]string) (bool, error) {
	ctx, sp := obs.StartSpan(ctx, "store.delete")
	if sp.Recording() {
		sp.SetAttr("relation", rel)
	}
	defer sp.End()
	missing := false
	lookup := func(name string) relation.Value {
		v, ok := cs.eng.Dict().Lookup(name)
		if !ok {
			missing = true
		}
		return v
	}
	i, t, err := rowTuple(cs.schema.s, lookup, rel, row)
	if err != nil {
		return false, err
	}
	if missing {
		return false, nil
	}
	return cs.eng.DeleteCtx(ctx, i, t)
}

// BatchOp is one row of an InsertBatch.
type BatchOp struct {
	Rel string
	Row map[string]string
}

// InsertBatch validates and adds the rows atomically: either every row is
// admitted or the state is unchanged and the first violation is returned.
// On the fast path each involved relation's stripe is taken once for the
// whole batch, amortizing locking. A batch is limited to 65536 rows
// (engine.MaxBatchOps) so it always fits one write-ahead-log record on a
// durable store; split larger loads into multiple batches.
func (cs *ConcurrentStore) InsertBatch(ops []BatchOp) error {
	return cs.InsertBatchCtx(context.Background(), ops)
}

// InsertBatchCtx is InsertBatch with the context's trace ID attached to the
// commit.
func (cs *ConcurrentStore) InsertBatchCtx(ctx context.Context, ops []BatchOp) error {
	ctx, sp := obs.StartSpan(ctx, "store.batch")
	if sp.Recording() {
		sp.SetInt("ops", int64(len(ops)))
	}
	defer sp.End()
	eops := make([]engine.Op, len(ops))
	for k, op := range ops {
		i, t, err := rowTuple(cs.schema.s, cs.eng.Dict().Value, op.Rel, op.Row)
		if err != nil {
			return err
		}
		eops[k] = engine.Op{Scheme: i, Tuple: t}
	}
	_, err := cs.eng.Apply(ctx, eops)
	return err
}

// Snapshot returns an immutable consistent view of the store as a Database:
// a copy of the tuples that no later operation mutates, suitable for
// Satisfies, Tuples, rendering, or window queries (the snapshot shares the
// store's query evaluator, so its plans and counters are the store's). It
// also shares the store's append-only dictionary, so Database.Insert on a
// snapshot interns new names into the store's dictionary.
func (cs *ConcurrentStore) Snapshot() *Database {
	return &Database{schema: cs.schema, st: cs.eng.Snapshot(), qev: cs.eng.Evaluator()}
}

// Rows returns the total number of tuples across all relations.
func (cs *ConcurrentStore) Rows() int { return int(cs.eng.Rows()) }

// RelationStats re-exports the engine's per-relation counters: tuple count,
// accepted inserts, rejects, deletes, and p50/p90/p99/p999 end-to-end
// latency from the relation's histogram — the same numbers /metrics scrapes.
type RelationStats = engine.RelationStats

// Stats returns per-relation statistics in schema order.
func (cs *ConcurrentStore) Stats() []RelationStats { return cs.eng.Stats() }

// SetTelemetry wires the engine's slow-operation log: operations (and
// window queries) at or above slow are logged to logger with their trace
// IDs. Call before the store is used concurrently.
func (cs *ConcurrentStore) SetTelemetry(logger *slog.Logger, slow time.Duration) {
	cs.eng.SetTelemetry(engine.Telemetry{Log: logger, Slow: slow})
}

// RegisterMetrics files the store's metric families with the registry:
// per-relation operation counters and latency histograms, commit and
// snapshot counters, query-evaluator and chase telemetry.
func (cs *ConcurrentStore) RegisterMetrics(r *obs.Registry) {
	cs.eng.RegisterMetrics(r)
}

// String renders a snapshot of the store's state.
func (cs *ConcurrentStore) String() string { return cs.Snapshot().String() }
