package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"indep"
)

// runWorkload runs one workload untraced and fills the result with its
// end-to-end metrics.
func (r *run) runWorkload(ctx context.Context) error {
	switch r.res.Workload {
	case "ingest":
		return r.ingest(ctx)
	case "readonly":
		return r.readonly(ctx)
	case "mixed":
		return r.mixed(ctx)
	case "routed":
		return r.routed(ctx)
	}
	return fmt.Errorf("bench: unknown workload %q", r.res.Workload)
}

// Shares of --seconds each phase of a two-phase workload measures for.
const (
	ingestReadShare  = 0.2 // ingest: read phase on the preloaded state, then writes
	routedWriteShare = 0.4 // routed: phase A writes, phase B reads
)

// ingestWriter is what one ingest client did.
type ingestWriter struct {
	phase
	fact    []uint64 // FACT rows of acknowledged batches
	dims    [5]int64 // fresh DIMk rows of acknowledged batches
	acked   []int    // sequence numbers of acknowledged batches
	refused []int    // sequence numbers of the by-design 409 batches
	spans   []span   // send/done of every batch, for the checkpoint stall
}

type span struct{ start, end time.Time }

// longestOverlap is the longest of the spans that overlapped ck, in
// milliseconds: the stall a client saw because of a checkpoint.
func longestOverlap(spans []span, ck span) float64 {
	stall := 0.0
	for _, s := range spans {
		if s.end.After(ck.start) && s.start.Before(ck.end) {
			stall = max(stall, float64(s.end.Sub(s.start))/float64(time.Millisecond))
		}
	}
	return stall
}

// ingest: one durable node with fsync on. A short read phase on the
// preloaded state gives the window_* figures; then the clients post 64-op
// batches for the rest of the time, one checkpoint at the midpoint; then
// SIGKILL, restart on the same directory, and verification.
func (r *run) ingest(ctx context.Context) error {
	t, _, _, err := r.setup(ctx, "durable", 5)
	if err != nil {
		return err
	}
	want, err := r.expectations()
	if err != nil {
		return err
	}
	if err := r.warm(ctx, t); err != nil {
		return err
	}
	reads := r.read(ctx, t.front.base, seconds(r.cfg.seconds*ingestReadShare), want)
	r.setRead(reads)

	writeFor := seconds(r.cfg.seconds * (1 - ingestReadShare))
	start := time.Now()
	deadline := start.Add(writeFor)
	midpoint := start.Add(writeFor / 2)
	writers := make([]ingestWriter, r.cfg.clients)
	var ckpt span
	var wg sync.WaitGroup
	for c := range writers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &writers[c]
			cl := newClient(t.front.base)
			defer cl.close()
			enc := indep.NewBinBatchEncoder(r.sch)
			checkpointed := c != 0 // client 0 takes the checkpoint on its own connection
			for seq := 0; time.Now().Before(deadline) && ctx.Err() == nil; seq++ {
				if !checkpointed && time.Now().After(midpoint) {
					checkpointed = true
					r.attempt(1)
					ckpt.start = time.Now()
					status, _, _, err := cl.do(ctx, "POST", "/v1/checkpoint", []byte{}, "")
					ckpt.end = time.Now()
					if err != nil || status != 200 {
						r.fail("checkpoint: status %d: %v", status, err)
					}
				}
				ops := ingestBatch(r.cfg.seed, c, seq)
				payload, err := encodeBatch(enc, ops)
				if err != nil {
					r.fail("encode: %v", err)
					return
				}
				r.attempt(1)
				acked := 0
				t0 := time.Now()
				status, rep, err := cl.postBatch(ctx, payload)
				t1 := time.Now()
				switch {
				case err != nil:
					r.fail("ingest batch %d/%d: %v", c, seq, err)
					continue
				case ingestViolates(seq):
					if status != 409 {
						r.fail("ingest batch %d/%d carries a violation but got %d", c, seq, status)
						continue
					}
					w.refused = append(w.refused, seq)
				case status != 200:
					r.fail("ingest batch %d/%d: status %d", c, seq, status)
					continue
				default:
					if err := rep.applied(len(ops)); err != nil {
						r.fail("ingest batch %d/%d: %v", c, seq, err)
						continue
					}
					acked = len(ops)
					w.acked = append(w.acked, seq)
					for _, o := range ops {
						if o.rel == 0 {
							w.fact = append(w.fact, o.factKey())
						} else if o.key[0] >= preloadDim {
							w.dims[o.rel]++
						}
					}
				}
				w.add(t1.Sub(start), t1.Sub(t0), acked, 0)
				w.spans = append(w.spans, span{t0, t1})
			}
		}(c)
	}
	wg.Wait()
	total := &phase{}
	var spans []span
	for i := range writers {
		total.merge(&writers[i].phase)
		spans = append(spans, writers[i].spans...)
	}
	r.closePhase(total, start)
	r.setWrite(total, total.perSecond())
	if err := t.check(); err != nil {
		return err
	}
	if !ckpt.start.IsZero() {
		r.set("checkpoint_stall_ms", longestOverlap(spans, ckpt), 1)
	}
	if rss, err := t.rssPeakMB(); err == nil {
		r.set("rss_peak_mb", rss, 0)
	}

	// Crash. SIGKILL leaves the page cache intact, so this proves
	// process-crash durability only; power loss is out of scope.
	t.front.kill()
	bytes, err := dirBytes(t.dataDir)
	if err != nil {
		return err
	}
	if n := total.work(); n > 0 {
		r.set("wal_bytes_per_tuple", float64(bytes)/float64(n), 0)
	}
	back, err := r.e.start("node", "-data", t.dataDir)
	if err != nil {
		return err
	}
	t.front = back
	probe := newClient(back.base)
	defer probe.close()
	recovery, err := back.ready(ctx, probe.hc)
	if err != nil {
		return err
	}
	return r.verifyIngest(ctx, t, writers, recovery)
}

// verifyIngest checks the recovered node: the row counts equal exactly the
// rows of acknowledged batches, 200 sampled acknowledged rows are present
// (re-sending them changes no count), and sampled rows are readable while
// rows of refused batches are not.
func (r *run) verifyIngest(ctx context.Context, t *topo, writers []ingestWriter, recovery time.Duration) error {
	fact := make(map[uint64]struct{}, preloadFact)
	for _, o := range preloadOps(r.cfg.seed) {
		if o.rel == 0 {
			fact[o.factKey()] = struct{}{}
		}
	}
	want := map[string]int64{"DIM1": preloadDim, "DIM2": preloadDim, "DIM3": preloadDim, "DIM4": preloadDim}
	for i := range writers {
		for _, k := range writers[i].fact {
			fact[k] = struct{}{}
		}
		for k := 1; k <= 4; k++ {
			want[relNames[k]] += writers[i].dims[k]
		}
	}
	want["FACT"] = int64(len(fact))
	rows := int64(0)
	for _, n := range want {
		rows += n
	}
	r.set("recovery_tuples_per_s", float64(rows)/recovery.Seconds(), 1)
	r.attempt(1)
	if err := r.checkCounts(ctx, t, want); err != nil {
		r.fail("after recovery: %v", err)
	}

	cl := newClient(t.front.base)
	defer cl.close()
	enc := indep.NewBinBatchEncoder(r.sch)
	pick := newRNG(r.cfg.seed, 99)
	var sample []op
	for len(sample) < 200 {
		c := pick.intn(len(writers))
		if len(writers[c].acked) == 0 {
			break
		}
		ops := ingestBatch(r.cfg.seed, c, writers[c].acked[pick.intn(len(writers[c].acked))])
		sample = append(sample, ops[pick.intn(len(ops))])
	}
	for _, b := range chunk(sample) {
		payload, err := encodeBatch(enc, b)
		if err != nil {
			return err
		}
		r.attempt(1)
		if status, _, err := cl.postBatch(ctx, payload); err != nil || status != 200 {
			r.fail("re-sending acknowledged rows: status %d: %v", status, err)
		}
	}
	r.attempt(1)
	if err := r.checkCounts(ctx, t, want); err != nil {
		r.fail("acknowledged rows were missing after recovery: %v", err)
	}

	// Read back three FACT rows of acknowledged batches and three of
	// refused batches. The window is O(state) today, so the sample is small.
	probeRow := func(o op, present bool) {
		row := o.row()
		w := newWindow(classLocal, []string{"A", "B", "C", "D"}, "D", row["D"], 0)
		r.attempt(1)
		res, err := cl.getWindow(ctx, w.query)
		if err != nil {
			r.fail("read-back: %v", err)
			return
		}
		found := false
		for _, got := range res.Rows {
			if got["A"] == row["A"] && got["B"] == row["B"] && got["C"] == row["C"] {
				found = true
			}
		}
		if _, stored := fact[o.factKey()]; !present && stored {
			return // the refused batch repeated a row some other batch stored
		}
		if found != present {
			r.fail("read-back of %v: present=%v, want %v", o, found, present)
		}
	}
	for i := 0; i < 3; i++ {
		c := i % len(writers)
		if n := len(writers[c].acked); n > 0 {
			probeRow(ingestBatch(r.cfg.seed, c, writers[c].acked[pick.intn(n)])[i], true)
		}
		if n := len(writers[c].refused); n > 0 {
			probeRow(ingestBatch(r.cfg.seed, c, writers[c].refused[pick.intn(n)])[i], false)
		}
	}
	return t.check()
}

// readonly: one in-memory node, preloaded; the clients read for the whole
// run and every answer is checked against the oracle. The write_* figures
// are the preload's.
func (r *run) readonly(ctx context.Context) error {
	t, writes, rates, err := r.setup(ctx, "memory", 9)
	if err != nil {
		return err
	}
	r.setWrite(writes, median(rates))
	want, err := r.expectations()
	if err != nil {
		return err
	}
	if err := r.warm(ctx, t); err != nil {
		return err
	}
	reads := r.read(ctx, t.front.base, seconds(r.cfg.seconds), want)
	r.setRead(reads)
	if rss, err := t.rssPeakMB(); err == nil {
		r.set("rss_peak_mb", rss, 0)
	}
	return t.check()
}

// mixedRate is the open-loop writer's fixed rate, batches per second.
const mixedRate = 50

// mixed: one durable node with fsync on, preloaded; one open-loop writer
// at a fixed rate beside one closed-loop reader. Write latency runs from
// the due time. Reads race writes, so they are checked for well-formedness
// while the run lasts and a sample is checked against the oracle once the
// writer has stopped.
func (r *run) mixed(ctx context.Context) error {
	t, _, _, err := r.setup(ctx, "durable", 5)
	if err != nil {
		return err
	}
	if err := r.warm(ctx, t); err != nil {
		return err
	}
	d := seconds(r.cfg.seconds)
	sched := schedule{start: time.Now(), every: time.Second / mixedRate}
	deadline := sched.start.Add(d)
	writes := &phase{}
	var late latencies
	var payloads [][]byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := newClient(t.front.base)
		defer cl.close()
		enc := indep.NewBinBatchEncoder(r.sch)
		for seq := 0; sched.due(seq).Before(deadline) && ctx.Err() == nil; seq++ {
			ops := mixedBatch(r.cfg.seed, seq)
			payload, err := encodeBatch(enc, ops)
			if err != nil {
				r.fail("encode: %v", err)
				return
			}
			time.Sleep(time.Until(sched.due(seq)))
			r.attempt(1)
			sent := time.Now()
			if err := cl.apply(ctx, payload, len(ops)); err != nil {
				r.fail("mixed batch %d: %v", seq, err)
				continue
			}
			latency, lateness := sched.account(seq, sent, time.Now())
			writes.add(time.Since(sched.start), latency, len(ops), 0)
			late.add(lateness)
			payloads = append(payloads, payload)
		}
	}()
	reads := r.read(ctx, t.front.base, d, nil)
	wg.Wait()
	r.closePhase(writes, sched.start)
	r.setWrite(writes, writes.perSecond())
	r.setRead(reads)
	if v, ok := late.q(0.99); ok {
		r.set("generator_lateness_p99_ms", v, late.n())
	}
	if rss, err := t.rssPeakMB(); err == nil {
		r.set("rss_peak_mb", rss, 0)
	}
	if err := t.check(); err != nil {
		return err
	}

	// Quiesced: the oracle catches up on the acknowledged batches and one
	// window for every twenty served is asked again and compared.
	for _, p := range payloads {
		if _, err := r.oracle.ApplyBinBatch(ctx, p); err != nil {
			return fmt.Errorf("bench: oracle refused an acknowledged batch: %w", err)
		}
	}
	cl := newClient(t.front.base)
	defer cl.close()
	for i, n := 0, max(10, reads.work()/20); i < n; i++ {
		w := pickWindow(r.pool, r.cfg.seed, 7, i)
		exp, err := r.oracle.Query(w.q)
		if err != nil {
			return err
		}
		r.attempt(1)
		res, err := cl.getWindow(ctx, w.query)
		if err != nil {
			r.fail("quiesced window: %v", err)
		} else if got, want := canon(res), canon(exp); got != want {
			r.fail("quiesced window %s: got %.80s, want %.80s", w.query, got, want)
		}
	}
	return t.check()
}

// routed: a router in front of two in-memory shards, preloaded through
// the router. Phase A: the clients write batches of inserts and deletes
// that keep the state stationary. Phase B: the clients read through the
// router, every answer checked against the oracle. At the end the state
// gathered from the shards is diffed against the oracle's.
func (r *run) routed(ctx context.Context) error {
	t, _, _, err := r.setup(ctx, "routed", 5)
	if err != nil {
		return err
	}
	if err := r.warm(ctx, t); err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(seconds(r.cfg.seconds * routedWriteShare))
	writers := make([]phase, r.cfg.clients)
	sent := make([][][]byte, r.cfg.clients)
	var wg sync.WaitGroup
	for c := range writers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(t.front.base)
			defer cl.close()
			enc := indep.NewBinBatchEncoder(r.sch)
			for seq := 0; time.Now().Before(deadline) && ctx.Err() == nil; seq++ {
				ops := routedBatch(r.cfg.seed, c, r.cfg.clients, seq)
				payload, err := encodeBatch(enc, ops)
				if err != nil {
					r.fail("encode: %v", err)
					return
				}
				r.attempt(1)
				t0 := time.Now()
				if err := cl.apply(ctx, payload, len(ops)); err != nil {
					r.fail("routed batch %d/%d: %v", c, seq, err)
					continue
				}
				writers[c].add(time.Since(start), time.Since(t0), len(ops), 0)
				sent[c] = append(sent[c], payload)
			}
		}(c)
	}
	wg.Wait()
	total := &phase{}
	for i := range writers {
		total.merge(&writers[i])
	}
	r.closePhase(total, start)
	r.setWrite(total, total.perSecond())
	if err := t.check(); err != nil {
		return err
	}

	// The clients' rows are disjoint, so their streams commute and the
	// oracle may take them one client after the other.
	for _, payloads := range sent {
		for _, p := range payloads {
			if _, err := r.oracle.ApplyBinBatch(ctx, p); err != nil {
				return fmt.Errorf("bench: oracle refused an acknowledged batch: %w", err)
			}
		}
	}
	want, err := r.expectations()
	if err != nil {
		return err
	}
	reads := r.read(ctx, t.front.base, seconds(r.cfg.seconds*(1-routedWriteShare)), want)
	r.setRead(reads)
	if rss, err := t.rssPeakMB(); err == nil {
		r.set("rss_peak_mb", rss, 0)
	}

	gathered := r.sch.NewDatabase()
	for _, s := range t.shards {
		cl := newClient(s.base)
		for _, rel := range relNames {
			frag, err := cl.relation(ctx, rel)
			if err != nil {
				cl.close()
				return err
			}
			for _, row := range frag.Rows {
				if err := gathered.Insert(rel, row); err != nil {
					cl.close()
					return err
				}
			}
		}
		cl.close()
	}
	r.attempt(1)
	if diffs := indep.DiffDatabasesByName(gathered, r.oracle.Snapshot()); len(diffs) > 0 {
		r.fail("gathered state differs from the single-node oracle in %d rows, first: %s", len(diffs), diffs[0])
	}
	return t.check()
}
