package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"indep"
	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/engine"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/maintenance"
	"indep/internal/query"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/wal"
	"indep/internal/workload"
)

// layers holds what the in-process passes need below the public API: the
// internal schema, its dependencies and the independence result the engine,
// guard and evaluator are all built from.
type layers struct {
	s   *schema.Schema
	fds fd.List
	res *independence.Result
	// scheme[rel] and attrs[rel] give op.rel's scheme index and attribute
	// names in tuple order.
	scheme [5]int
	attrs  [5][]string
}

func newLayers() (*layers, error) {
	s, err := schema.Parse(schemaSrc)
	if err != nil {
		return nil, err
	}
	fds, err := fd.Parse(s.U, fdSrc)
	if err != nil {
		return nil, err
	}
	res, err := independence.Decide(s, fds)
	if err != nil {
		return nil, err
	}
	if !res.Independent {
		return nil, fmt.Errorf("bench: the benchmark schema is not independent")
	}
	l := &layers{s: s, fds: fds, res: res}
	for rel, name := range relNames {
		i := s.IndexOf(name)
		l.scheme[rel] = i
		for _, a := range s.Attrs(i).Attrs() {
			l.attrs[rel] = append(l.attrs[rel], s.U.Name(a))
		}
	}
	return l, nil
}

// names lists the operation's values in tuple order.
func (l *layers) names(o op) []string {
	row := o.row()
	out := make([]string, len(l.attrs[o.rel]))
	for j, a := range l.attrs[o.rel] {
		out[j] = row[a]
	}
	return out
}

// tuple resolves the operation through intern.
func (l *layers) tuple(o op, intern func(string) relation.Value) engine.Op {
	names := l.names(o)
	t := make(relation.Tuple, len(names))
	for j, n := range names {
		t[j] = intern(n)
	}
	return engine.Op{Scheme: l.scheme[o.rel], Tuple: t}
}

func (l *layers) attrSet(names []string) attrset.Set {
	var x attrset.Set
	for _, n := range names {
		i, _ := l.s.U.Index(n)
		x.Add(i)
	}
	return x
}

// resolved is one write item below the wire: its inserts and deletes as
// engine operations.
type resolved struct {
	ins, dels []engine.Op
	added     []engine.Op // ins without the re-sent stored rows: what tearing the item down deletes
	bad       bool
}

// medianUS is a latency sample's median in microseconds.
func medianUS(l *latencies) float64 {
	v, _ := l.q(0.5)
	return v * 1000
}

func medianMS(l *latencies) float64 {
	v, _ := l.q(0.5)
	return v
}

// tearDown is how many trailing write items a pass deletes again when the
// stream itself carries no deletes, so delete costs exist on every workload.
const tearDown = 20

// layerPasses runs every in-process pass and sets the per-layer metrics
// that do not need a daemon.
func (r *run) layerPasses(ctx context.Context, s *tracedStream, rc *recorder) error {
	l, err := newLayers()
	if err != nil {
		return err
	}
	writes, reads := s.writes(), s.reads()
	// On ingest the windows come before the writes, so the query passes
	// see the preloaded state; elsewhere they see the state after the
	// writes, which the workload keeps stationary.
	readsFirst := len(s.items) > 0 && !s.items[0].write

	// --- binwire: encode and decode of every write item -----------------
	enc := indep.NewBinBatchEncoder(r.sch)
	var bytes, tuples int
	for i, it := range writes {
		id := rc.begin("binwire.encode", i)
		if _, err := encodeBatch(enc, it.ops); err != nil {
			return err
		}
		rc.end(id)
		id = rc.begin("binwire.decode", i)
		if _, err := r.sch.DecodeBinBatch(it.payload); err != nil {
			return err
		}
		rc.end(id)
		bytes += len(it.payload)
		tuples += len(it.ops)
	}
	r.set("binwire.encode_us_per_batch", medianUS(rc.durations("binwire.encode")), len(writes))
	r.set("binwire.decode_us_per_batch", medianUS(rc.durations("binwire.decode")), len(writes))
	r.set("binwire.bytes_per_tuple", float64(bytes)/float64(tuples), 0)

	// --- engine: intern, then InsertBatch and Delete on resolved ops -----
	eng, err := engine.New(l.s, l.fds, chase.DefaultCaps)
	if err != nil {
		return err
	}
	dict := eng.Dict()
	load := func(ops []op, insert func([]engine.Op) error) error {
		for _, b := range chunk(ops) {
			eops := make([]engine.Op, len(b))
			for i, o := range b {
				eops[i] = l.tuple(o, dict.Value)
			}
			if err := insert(eops); err != nil {
				return err
			}
		}
		return nil
	}
	var pre []op
	if r.res.Workload != "readonly" {
		pre = preloadOps(r.cfg.seed)
	}
	if err := load(pre, eng.InsertBatch); err != nil {
		return err
	}
	if readsFirst {
		if err := r.queryPasses(l, eng, reads, rc); err != nil {
			return err
		}
	}
	res := make([]resolved, len(writes))
	for i, it := range writes {
		// Distinct names in first-use order: what the payload's intern
		// frames bind and ApplyBinBatch interns.
		var names []string
		seen := make(map[string]bool)
		for _, o := range it.ops {
			for _, n := range l.names(o) {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
		id := rc.begin("engine.intern", i)
		for _, n := range names {
			dict.Value(n)
		}
		rc.end(id)
		for _, o := range it.ops {
			eo := l.tuple(o, dict.Value)
			if o.del {
				res[i].dels = append(res[i].dels, eo)
			} else {
				res[i].ins = append(res[i].ins, eo)
				if o.rel == 0 || o.key[0] >= preloadDim || r.res.Workload == "readonly" {
					res[i].added = append(res[i].added, eo)
				}
			}
			res[i].bad = res[i].bad || o.bad
		}
	}
	hasDeletes := false
	for i := range res {
		id := rc.begin("engine.insert_batch", i)
		err := eng.InsertBatch(res[i].ins)
		rc.end(id)
		if err != nil && !res[i].bad {
			return fmt.Errorf("bench: engine pass, item %d: %w", i, err)
		}
		for _, d := range res[i].dels {
			hasDeletes = true
			id := rc.begin("engine.delete", i)
			_, err := eng.Delete(d.Scheme, d.Tuple)
			rc.end(id)
			if err != nil {
				return err
			}
		}
	}
	r.set("engine.intern_us_per_batch", medianUS(rc.durations("engine.intern")), len(writes))

	// --- engine: the snapshot a reader pays for right after a write ------
	spare := l.tuple(op{key: [4]uint32{0, 1, 2, 3}}, dict.Value)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			err = eng.Insert(spare.Scheme, spare.Tuple)
		} else {
			_, err = eng.Delete(spare.Scheme, spare.Tuple)
		}
		if err != nil {
			return err
		}
		id := rc.begin("engine.snapshot_cut", i)
		eng.QuerySnapshot()
		rc.end(id)
	}
	r.set("engine.snapshot_cut_ms", medianMS(rc.durations("engine.snapshot_cut")), 20)

	if !readsFirst {
		if err := r.queryPasses(l, eng, reads, rc); err != nil {
			return err
		}
	}
	if !hasDeletes {
		for i := len(res) - 1; i >= max(0, len(res)-tearDown); i-- {
			for _, d := range res[i].added {
				id := rc.begin("engine.delete", i)
				eng.Delete(d.Scheme, d.Tuple)
				rc.end(id)
			}
		}
	}
	deletes := rc.durations("engine.delete")
	r.set("engine.delete_us_per_op", medianUS(deletes), deletes.n())

	// --- maintenance: the guard alone on the same tuples -----------------
	guard := maintenance.NewGuard(l.s, l.res.Cover)
	if err := load(pre, func(ops []engine.Op) error {
		for _, o := range ops {
			if err := guard.Insert(o.Scheme, o.Tuple); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	guardDelete := func(i int, ops []engine.Op) {
		id := rc.begin("guard.delete", i)
		for _, d := range ops {
			guard.Delete(d.Scheme, d.Tuple)
		}
		rc.end(id)
	}
	var inserted, deleted int
	for i := range res {
		id := rc.begin("guard.insert", i)
		for _, o := range res[i].ins {
			guard.InsertReport(o.Scheme, o.Tuple) // a violating row is refused and leaves no trace
		}
		rc.end(id)
		inserted += len(res[i].ins)
		if len(res[i].dels) > 0 {
			guardDelete(i, res[i].dels)
			deleted += len(res[i].dels)
		}
	}
	if !hasDeletes {
		for i := len(res) - 1; i >= max(0, len(res)-tearDown); i-- {
			guardDelete(i, res[i].added)
			deleted += len(res[i].added)
		}
	}
	// Rejections: the violating variant of 200 stored dimension rows.
	var bad []engine.Op
	for id := uint32(0); id < 200; id++ {
		bad = append(bad, l.tuple(op{rel: byte(1 + id%4), bad: true, key: [4]uint32{id}}, dict.Value))
	}
	id := rc.begin("guard.reject", 0)
	refused := 0
	for _, o := range bad {
		if _, err := guard.InsertReport(o.Scheme, o.Tuple); err != nil {
			refused++
		}
	}
	rc.end(id)
	if refused != len(bad) {
		return fmt.Errorf("bench: guard refused %d of %d violating rows", refused, len(bad))
	}
	nsPer := func(span string, tuples int) float64 { return rc.durations(span).sum() * 1e6 / float64(tuples) }
	r.set("maintenance.guard_insert_ns_per_tuple", nsPer("guard.insert", inserted), inserted)
	r.set("maintenance.guard_delete_ns_per_tuple", nsPer("guard.delete", deleted), deleted)
	r.set("maintenance.guard_reject_ns_per_tuple", nsPer("guard.reject", len(bad)), len(bad))
	// InsertBatch's own share: the batch call minus the guard's work in it.
	self := medianUS(rc.durations("engine.insert_batch")) - medianUS(rc.durations("guard.insert"))
	r.set("engine.insert_batch_us", max(self, 0), len(writes))

	if err := r.walPasses(ctx, s, writes, res, rc); err != nil {
		return err
	}
	return r.chasePass(rc)
}

// queryPasses times the query layer on a held snapshot of eng, and the
// public Query around it on a store with the same rows.
func (r *run) queryPasses(l *layers, eng *engine.Engine, reads []item, rc *recorder) error {
	// Cold plans: a fresh evaluator compiles each distinct attribute set.
	cold := query.NewEvaluator(l.s, l.fds, l.res, chase.DefaultCaps)
	seen := make(map[attrset.Set]bool)
	for i, it := range reads {
		x := l.attrSet(it.win.q.Attrs)
		if seen[x] {
			continue
		}
		seen[x] = true
		id := rc.begin("query.plan", i)
		_, _, err := cold.Plan(x)
		rc.end(id)
		if err != nil {
			return err
		}
	}
	r.set("query.plan_us", medianUS(rc.durations("query.plan")), len(seen))

	st := eng.QuerySnapshot()
	ev := eng.Evaluator()
	for x := range seen {
		if _, _, err := ev.Plan(x); err != nil { // warm: evaluation below is plan-cached, as served
			return err
		}
	}
	// The public path on a store holding the same rows.
	cs, err := r.sch.OpenConcurrentStore()
	if err != nil {
		return err
	}
	for _, rel := range relNames {
		i := l.s.IndexOf(rel)
		for _, t := range st.Insts[i].Rows() {
			row := make(map[string]string, len(t))
			for j, a := range l.s.Attrs(i).Attrs() {
				row[l.s.U.Name(a)] = st.Dict.Name(t[j])
			}
			if err := cs.Insert(rel, row); err != nil {
				return err
			}
		}
	}
	if _, err := cs.Query(reads[0].win.q); err != nil { // cut the snapshot, cache the plans
		return err
	}
	for _, it := range reads {
		if _, err := cs.Query(it.win.q); err != nil {
			return err
		}
	}
	var scanned, returned int
	var encode, render latencies
	for i, it := range reads {
		name := "query.eval.local"
		if it.win.class == classJoin {
			name = "query.eval.join"
		}
		x := l.attrSet(it.win.q.Attrs)
		t0 := time.Now()
		id := rc.begin(name, i)
		res, err := ev.Window(st, x)
		rc.end(id)
		eval := time.Since(t0)
		if err != nil {
			return err
		}
		for _, rs := range ev.Explain(res, st).Relations {
			scanned += rs.Rows
		}
		q := it.win.q
		t0 = time.Now()
		id = rc.begin("store.query.rows", i)
		out, err := cs.Query(q)
		rc.end(id)
		rows := time.Since(t0)
		if err != nil {
			return err
		}
		returned += len(out.Rows)
		q.BinaryResult = true
		t0 = time.Now()
		id = rc.begin("store.query.bin", i)
		_, err = cs.Query(q)
		rc.end(id)
		bin := time.Since(t0)
		if err != nil {
			return err
		}
		// What the store adds around the evaluator: selection, sort and
		// rendering — as row maps, or as the binary wire encoding.
		render.add(max(rows-eval, 0))
		encode.add(max(bin-eval, 0))
	}
	for _, class := range []string{"local", "join"} {
		evals := rc.durations("query.eval." + class)
		r.set("query.eval_"+class+"_ms", medianMS(evals), evals.n())
	}
	r.set("query.render_ms", medianMS(&render), render.n())
	r.set("binwire.window_encode_ms", medianMS(&encode), encode.n())
	r.set("query.rows_scanned_per_row_returned", float64(scanned)/float64(max(returned, 1)), 0)
	return nil
}

// fsyncBudget caps the commits the WAL passes make: every delete is its
// own commit and its own fsync, and a delete-heavy stream would otherwise
// spend the whole run waiting on the disk.
const fsyncBudget = 1500

// walPasses times what the log adds to a commit, then a durable store's
// replay, its checkpoint, and the stall the checkpoint causes.
func (r *run) walPasses(ctx context.Context, s *tracedStream, writes []item, res []resolved, rc *recorder) error {
	n, commits := 0, 0
	for n < len(res) && commits+1+len(res[n].dels) <= fsyncBudget {
		commits += 1 + len(res[n].dels)
		n++
	}
	// The write items on an in-memory store and on a durable one: the
	// difference is what the log adds to a commit's blocking path — record
	// building, the append, and every fsync the commit waits behind
	// (including the one the batch's own intern records may get to
	// themselves when the writer wakes before the commit arrives).
	var before wal.LogStats
	apply := func(t target, span string, afterPre func()) error {
		for _, p := range s.pre {
			if err := t.batch(ctx, item{payload: p}); err != nil {
				return err
			}
		}
		afterPre()
		for i, it := range writes[:n] {
			id := rc.begin(span, i)
			err := t.batch(ctx, it)
			rc.end(id)
			if err != nil {
				return err
			}
		}
		return nil
	}
	mem, err := r.sch.OpenConcurrentStore()
	if err != nil {
		return err
	}
	if err := apply(storeTarget{mem}, "store.batchbin.memory", func() {}); err != nil {
		return err
	}
	dir, err := r.e.dir("trace-store")
	if err != nil {
		return err
	}
	ds, err := r.sch.OpenDurableStore(dir, indep.DurableOptions{})
	if err != nil {
		return err
	}
	if err := apply(storeTarget{ds.ConcurrentStore}, "store.batchbin.durable", func() { before = ds.WAL() }); err != nil {
		ds.Close()
		return err
	}
	stats := ds.WAL()
	tuples := 0
	for _, it := range writes[:n] {
		tuples += len(it.ops)
	}
	wait := medianUS(rc.durations("store.batchbin.durable")) - medianUS(rc.durations("store.batchbin.memory"))
	r.set("wal.append_wait_us_per_batch", max(wait, 0), n)
	r.set("wal.fsyncs_per_batch", float64(stats.Syncs-before.Syncs)/float64(n), 0)
	r.set("wal.records_per_group", float64(stats.Records-before.Records)/float64(max(stats.CommitGroups-before.CommitGroups, 1)), 0)
	r.set("wal.bytes_per_tuple", float64(stats.TotalBytes-before.TotalBytes)/float64(tuples), 0)
	if err := ds.Close(); err != nil {
		return err
	}
	id := rc.begin("wal.replay", 0)
	ds, err = r.sch.OpenDurableStore(dir, indep.DurableOptions{})
	rc.end(id)
	if err != nil {
		return err
	}
	defer ds.Close()
	rec := ds.Recovery()
	r.set("wal.replay_tuples_per_s", float64(ds.Rows())/rec.Duration.Seconds(), rec.Records)

	// Background writer for the stall: ingest-shaped batches, whatever the
	// workload, because a stall needs commits in flight to be seen.
	stop := make(chan struct{})
	var spans []span
	var bgErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		enc := indep.NewBinBatchEncoder(r.sch)
		for seq := 0; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			if ingestViolates(seq) {
				continue
			}
			p, err := encodeBatch(enc, ingestBatch(r.cfg.seed, maxClients-1, seq))
			if err == nil {
				t0 := time.Now()
				_, err = ds.ApplyBinBatch(ctx, p)
				spans = append(spans, span{t0, time.Now()})
			}
			if err != nil {
				bgErr = err
				return
			}
		}
	}()
	time.Sleep(30 * time.Millisecond)
	rows := ds.Rows()
	ck := span{start: time.Now()}
	id = rc.begin("wal.checkpoint", 0)
	err = ds.Checkpoint()
	rc.end(id)
	ck.end = time.Now()
	close(stop)
	wg.Wait()
	if err == nil {
		err = bgErr
	}
	if err != nil {
		return err
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	var ckBytes int64
	for _, p := range ckpts {
		if info, err := os.Stat(p); err == nil && !strings.HasSuffix(p, ".tmp") {
			ckBytes = max(ckBytes, info.Size())
		}
	}
	r.set("wal.checkpoint_cut_ms", medianMS(rc.durations("wal.checkpoint")), 1)
	r.set("wal.checkpoint_bytes_per_tuple", float64(ckBytes)/float64(max(rows, 1)), 0)
	r.set("wal.checkpoint_stall_ms", longestOverlap(spans, ck), 1)
	return nil
}

// chaseOps is the fixed size of the chase guard rail.
const chaseOps = 2000

// chasePass inserts a fixed 2k consistent tuples into the paper's
// non-independent Example 1 schema, where every insert goes through the
// chase maintainer. None of the four workloads touches this path (they are
// all independent); it is here so a consolidation change sees the fallback.
func (r *run) chasePass(rc *recorder) error {
	s, fds := workload.Example1()
	m, fast, err := maintenance.ForSchema(s, fds, chase.DefaultCaps)
	if err != nil {
		return err
	}
	if fast {
		return fmt.Errorf("bench: Example 1 came out independent")
	}
	dict := m.State().Dict
	cd, ct, td := s.IndexOf("CD"), s.IndexOf("CT"), s.IndexOf("TD")
	// Tuple values are in universe order (C, D, T): CD is (C,D), CT is
	// (C,T), TD is (D,T). A course's department is its teacher's.
	for i := 0; i < chaseOps; i++ {
		c := i / 3
		teacher := c % 97
		cv := dict.Value(fmt.Sprintf("c%d", c))
		tv := dict.Value(fmt.Sprintf("t%d", teacher))
		dv := dict.Value(fmt.Sprintf("d%d", teacher%11))
		var scheme int
		var t relation.Tuple
		switch i % 3 {
		case 0:
			scheme, t = cd, relation.Tuple{cv, dv}
		case 1:
			scheme, t = ct, relation.Tuple{cv, tv}
		default:
			scheme, t = td, relation.Tuple{dv, tv}
		}
		id := rc.begin("chase.insert", i)
		err := m.Insert(scheme, t)
		rc.end(id)
		if err != nil {
			return fmt.Errorf("bench: chase pass refused a consistent tuple: %w", err)
		}
	}
	r.set("chase.maintainer_insert_us_per_tuple", rc.durations("chase.insert").sum()*1000/chaseOps, chaseOps)
	return nil
}
