package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"indep"
	"indep/internal/cluster"
)

// The traced run. It replays the first operations of the workload's stream
// in-process on one goroutine and records a span around each call into a
// layer's public entry point; no file outside bench/ carries a span for it.
// Nested entry points are timed in separate passes over the same inputs
// (the outer call, then the inner call alone), and a layer's self time is
// outer minus inner. Then the same operations go to real daemons over one
// connection, which gives the process-level numbers (CPU per operation,
// HTTP overhead = HTTP p50 − in-process p50).

// spanRec is one recorded span. Times are offsets from the recorder's
// start; parent is an index into the same slice, -1 for a root.
type spanRec struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"` // stream position the span belongs to
}

// recorder keeps spans in memory until the run ends. The passes run on one
// goroutine and nest at most one level: a span begun while another is open
// is its child (the shard calls a router makes inside Router.Batch come
// from the router's goroutines, but always inside that one open span). A
// disabled recorder costs one branch per call, which is what the
// traced/untraced throughput ratio measures.
type recorder struct {
	mu    sync.Mutex // the cluster pass records from the router's goroutines
	on    bool
	t0    time.Time
	spans []spanRec
	open  int // the open root span, -1 when none
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now(), open: -1} }

// begin opens a span and returns its index, -1 when recording is off.
func (rc *recorder) begin(name string, op int) int {
	if !rc.on {
		return -1
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.spans = append(rc.spans, spanRec{Name: name, Start: time.Since(rc.t0), Parent: rc.open, Op: op})
	id := len(rc.spans) - 1
	if rc.open < 0 {
		rc.open = id
	}
	return id
}

func (rc *recorder) end(id int) {
	if id < 0 {
		return
	}
	rc.mu.Lock()
	rc.spans[id].End = time.Since(rc.t0)
	if rc.open == id {
		rc.open = -1
	}
	rc.mu.Unlock()
}

// dur is a finished span's duration.
func (rc *recorder) dur(id int) time.Duration { return rc.spans[id].End - rc.spans[id].Start }

// durations returns the durations of every span with the given name, in
// milliseconds, in recording order.
func (rc *recorder) durations(name string) *latencies {
	l := &latencies{}
	for _, s := range rc.spans {
		if s.Name == name {
			l.add(s.End - s.Start)
		}
	}
	return l
}

// write dumps the spans as JSON lines.
func (rc *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range rc.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// item is one request of a traced stream: a write batch or a window.
type item struct {
	write   bool
	ops     []op   // write
	payload []byte // write
	win     window // read
}

// tracedStream is the slice of a workload's stream the traced run replays:
// pre is applied untimed to build the starting state, items are timed.
type tracedStream struct {
	pre   [][]byte
	items []item
}

const (
	tracedWrites  = 300 // at most this many write batches
	tracedWindows = 30  // 24 local, 6 join
	// Each delete of a mixed batch is a commit and an fsync of its own, so
	// mixed replays fewer batches to stay inside the run's time.
	tracedMixedWrites = 80
)

// buildStream lays the workload's first operations out in the order the
// workload issues them: ingest reads then writes; readonly writes its
// preload then reads; mixed alternates a write and a read; routed writes
// then reads.
func (r *run) buildStream() (*tracedStream, error) {
	enc := indep.NewBinBatchEncoder(r.sch)
	s := &tracedStream{}
	var writes []item
	add := func(ops []op) error {
		p, err := encodeBatch(enc, ops)
		if err != nil {
			return err
		}
		writes = append(writes, item{write: true, ops: ops, payload: p})
		return nil
	}
	for _, b := range chunk(preloadOps(r.cfg.seed)) {
		if r.res.Workload == "readonly" {
			if err := add(b); err != nil {
				return nil, err
			}
			continue
		}
		p, err := encodeBatch(enc, b)
		if err != nil {
			return nil, err
		}
		s.pre = append(s.pre, p)
	}
	for seq := 0; seq < tracedWrites; seq++ {
		var ops []op
		switch r.res.Workload {
		case "ingest":
			ops = ingestBatch(r.cfg.seed, 0, seq)
		case "mixed":
			// The writer's first mixedLag batches only insert; they build
			// the state untimed, so that every timed batch deletes as well,
			// as in all but the first two seconds of the workload.
			if seq < mixedLag {
				p, err := encodeBatch(enc, mixedBatch(r.cfg.seed, seq))
				if err != nil {
					return nil, err
				}
				s.pre = append(s.pre, p)
				continue
			}
			if seq < mixedLag+tracedMixedWrites {
				ops = mixedBatch(r.cfg.seed, seq)
			}
		case "routed":
			ops = routedBatch(r.cfg.seed, 0, r.cfg.clients, seq)
		}
		if ops == nil {
			break
		}
		if err := add(ops); err != nil {
			return nil, err
		}
	}
	var reads []item
	for i := 0; i < tracedWindows; i++ {
		reads = append(reads, item{win: pickWindow(r.pool, r.cfg.seed, 0, i)})
	}
	switch r.res.Workload {
	case "ingest":
		s.items = append(reads, writes...)
	case "mixed":
		for i := range writes {
			s.items = append(s.items, writes[i])
			if i < len(reads) {
				s.items = append(s.items, reads[i])
			}
		}
	default:
		s.items = append(writes, reads...)
	}
	return s, nil
}

func (s *tracedStream) writes() []item {
	var out []item
	for _, it := range s.items {
		if it.write {
			out = append(out, it)
		}
	}
	return out
}

func (s *tracedStream) reads() []item {
	var out []item
	for _, it := range s.items {
		if !it.write {
			out = append(out, it)
		}
	}
	return out
}

// expectReject reports whether the batch carries a violating row, so that
// a refusal is the verdict the stream asked for rather than a fault.
func expectReject(ops []op) bool {
	for _, o := range ops {
		if o.bad {
			return true
		}
	}
	return false
}

// target is the in-process twin of what the workload's clients talk to: a
// store, or a router over in-process shards.
type target interface {
	batch(ctx context.Context, it item) error
	window(ctx context.Context, w window) (*indep.WindowResult, error)
}

// storeTarget serves from one ConcurrentStore (durable or in-memory).
type storeTarget struct{ cs *indep.ConcurrentStore }

func (t storeTarget) batch(ctx context.Context, it item) error {
	_, err := t.cs.ApplyBinBatch(ctx, it.payload)
	if err != nil && indep.Rejected(err) && expectReject(it.ops) {
		return nil
	}
	return err
}

func (t storeTarget) window(ctx context.Context, w window) (*indep.WindowResult, error) {
	q := w.q
	q.BinaryResult = true // what the daemon serves to this benchmark's clients
	return t.cs.QueryCtx(ctx, q)
}

// routerTarget serves through a Router over in-process shards.
type routerTarget struct{ rt *cluster.Router }

func (t routerTarget) batch(ctx context.Context, it item) error {
	rep, err := t.rt.Batch(ctx, it.payload)
	if err != nil {
		return err
	}
	if len(rep.Rejected) > 0 && !expectReject(it.ops) {
		return fmt.Errorf("router rejected %d ops", len(rep.Rejected))
	}
	return nil
}

func (t routerTarget) window(ctx context.Context, w window) (*indep.WindowResult, error) {
	return t.rt.Window(ctx, w.q)
}

// shardTransport is bench's in-process cluster.Transport: LocalTransport's
// behaviour with a span around each shard call and a count of the bytes a
// gather moves, which LocalTransport does not expose.
type shardTransport struct {
	name  string
	store *indep.ConcurrentStore
	rc    *recorder

	mu       sync.Mutex
	gathered int64 // bytes of relation fragments served
}

func (t *shardTransport) ApplyPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error) {
	id := t.rc.begin("shard.apply_partial", 0)
	rep, err := t.store.ApplyBinBatchPartial(ctx, payload)
	t.rc.end(id)
	if err != nil {
		return nil, &cluster.ShardError{Shard: t.name, Err: err}
	}
	return rep, nil
}

func (t *shardTransport) Relation(ctx context.Context, rel string) (*indep.WindowResult, error) {
	data, err := t.store.RelationBinary(rel)
	if err != nil {
		return nil, &cluster.ShardError{Shard: t.name, Err: err}
	}
	t.mu.Lock()
	t.gathered += int64(len(data))
	t.mu.Unlock()
	res, err := indep.DecodeWindowBinary(data)
	if err != nil {
		return nil, &cluster.ShardError{Shard: t.name, Err: err}
	}
	return res, nil
}

func (t *shardTransport) Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	return t.store.QueryCtx(ctx, q)
}

func (t *shardTransport) Ping(context.Context) error { return nil }

// localCluster is a router over two in-process in-memory shards.
type localCluster struct {
	rt     *cluster.Router
	shards []*shardTransport
}

func (r *run) newLocalCluster(rc *recorder) (*localCluster, error) {
	lc := &localCluster{}
	members := []cluster.Member{{Name: "shard1", URL: "local://1"}, {Name: "shard2", URL: "local://2"}}
	trs := make(map[string]cluster.Transport)
	for _, m := range members {
		cs, err := r.sch.OpenConcurrentStore()
		if err != nil {
			return nil, err
		}
		st := &shardTransport{name: m.Name, store: cs, rc: rc}
		lc.shards = append(lc.shards, st)
		trs[m.Name] = st
	}
	rt, err := cluster.NewRouter(r.sch, members, cluster.Options{Transports: trs})
	if err != nil {
		return nil, err
	}
	lc.rt = rt
	return lc, nil
}

func (lc *localCluster) gathered() int64 {
	var n int64
	for _, s := range lc.shards {
		s.mu.Lock()
		n += s.gathered
		s.mu.Unlock()
	}
	return n
}

// replay applies the stream to a target on this goroutine, one span per
// request, and returns the per-kind latencies.
func replay(ctx context.Context, t target, s *tracedStream, rc *recorder) (writes, reads *latencies, err error) {
	writes, reads = &latencies{}, &latencies{}
	for _, p := range s.pre {
		if err := t.batch(ctx, item{payload: p}); err != nil {
			return nil, nil, fmt.Errorf("bench: traced preload: %w", err)
		}
	}
	for i, it := range s.items {
		t0 := time.Now()
		if it.write {
			id := rc.begin("request.write", i)
			err = t.batch(ctx, it)
			rc.end(id)
			writes.add(time.Since(t0))
		} else {
			id := rc.begin("request.window", i)
			_, err = t.window(ctx, it.win)
			rc.end(id)
			reads.add(time.Since(t0))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("bench: traced request %d: %w", i, err)
		}
	}
	return writes, reads, nil
}
