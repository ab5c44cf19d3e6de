package main

import (
	"context"
	"fmt"
	"time"

	"indep"
)

// spansPath, when set by -spans, is where a traced run writes its spans.
var spansPath string

// openTarget opens the in-process twin of the workload's topology and
// returns it with its cleanup.
func (r *run) openTarget(rc *recorder) (target, *indep.ConcurrentStore, func(), error) {
	switch r.res.Workload {
	case "routed":
		lc, err := r.newLocalCluster(rc)
		if err != nil {
			return nil, nil, nil, err
		}
		return routerTarget{lc.rt}, nil, func() {}, nil
	case "readonly":
		cs, err := r.sch.OpenConcurrentStore()
		if err != nil {
			return nil, nil, nil, err
		}
		return storeTarget{cs}, cs, func() {}, nil
	default: // ingest, mixed: durable, fsync on
		dir, err := r.e.dir("trace-full")
		if err != nil {
			return nil, nil, nil, err
		}
		ds, err := r.sch.OpenDurableStore(dir, indep.DurableOptions{})
		if err != nil {
			return nil, nil, nil, err
		}
		return storeTarget{ds.ConcurrentStore}, ds.ConcurrentStore, func() { ds.Close() }, nil
	}
}

// runTraced is the traced run of one workload: the in-process passes, the
// full path in-process with and without span recording, the cluster pass,
// and the same stream against real daemons over one connection.
func (r *run) runTraced(ctx context.Context) error {
	s, err := r.buildStream()
	if err != nil {
		return err
	}
	rc := newRecorder(true)
	if err := r.layerPasses(ctx, s, rc); err != nil {
		return err
	}
	if err := r.clusterPass(ctx, s, rc); err != nil {
		return err
	}

	// The full path in-process, spans on and then off: the in-process p50
	// the HTTP overhead is taken against, the store's own counters, and
	// what recording costs.
	full := func(rc *recorder) (w, rd *latencies, qs indep.QueryStats, err error) {
		t, cs, done, err := r.openTarget(rc)
		if err != nil {
			return nil, nil, qs, err
		}
		defer done()
		w, rd, err = replay(ctx, t, s, rc)
		if err == nil && cs != nil {
			qs = cs.QueryStats()
		}
		return w, rd, qs, err
	}
	tracedW, tracedR, qs, err := full(rc)
	if err != nil {
		return err
	}
	plainW, _, _, err := full(newRecorder(false))
	if err != nil {
		return err
	}
	r.set("bench.traced_overhead_ratio", medianUS(plainW)/medianUS(tracedW), tracedW.n())
	if qs.Queries == 0 {
		// A router has no store of its own; its shards' evaluators are not
		// reachable through the public API, so the ratios come from a
		// single store replaying the same stream.
		cs, err := r.sch.OpenConcurrentStore()
		if err != nil {
			return err
		}
		if _, _, err := replay(ctx, storeTarget{cs}, s, newRecorder(false)); err != nil {
			return err
		}
		qs = cs.QueryStats()
	}
	r.set("query.plan_hit_ratio", float64(qs.PlanHits)/float64(max(qs.Queries, 1)), 0)
	r.set("engine.snapshot_reuse_ratio", float64(qs.SnapshotReuses)/float64(max(qs.SnapshotReuses+qs.SnapshotCopies, 1)), 0)

	r.set("bench.generator_lateness_ms_p99", generatorLateness(), latenessTicks)

	if err := r.probe(ctx, s, tracedW, tracedR); err != nil {
		return err
	}
	if spansPath != "" {
		if err := rc.write(spansPath); err != nil {
			return err
		}
	}
	fmt.Printf("traced run recorded %d spans\n", len(rc.spans))
	return nil
}

const latenessTicks = 1500

// generatorLateness measures how late this process wakes for an open-loop
// schedule with nothing else to do: 1 ms ticks, sleep until each is due.
// It bounds how far an open-loop latency can be trusted on this host.
func generatorLateness() float64 {
	sched := schedule{start: time.Now(), every: time.Millisecond}
	var late latencies
	for k := 0; k < latenessTicks; k++ {
		time.Sleep(time.Until(sched.due(k)))
		now := time.Now()
		_, l := sched.account(k, now, now)
		late.add(l)
	}
	v, _ := late.q(0.99)
	return v
}

// clusterPass replays the stream through a router over two in-process
// shards. The router's self time on a batch is the Batch call minus the
// slowest shard call inside it (the shards run in parallel); on a window it
// is the Window call minus the evaluator's time for the same window.
func (r *run) clusterPass(ctx context.Context, s *tracedStream, rc *recorder) error {
	first := len(rc.spans)
	lc, err := r.newLocalCluster(rc)
	if err != nil {
		return err
	}
	t := routerTarget{lc.rt}
	for _, p := range s.pre {
		if err := t.batch(ctx, item{payload: p}); err != nil {
			return err
		}
	}
	var route, gather, shard latencies
	var returned int
	evalByOp := make(map[int]time.Duration)
	for _, sp := range rc.spans[:first] {
		if sp.Name == "query.eval.local" || sp.Name == "query.eval.join" {
			evalByOp[sp.Op] = sp.End - sp.Start
		}
	}
	before := lc.gathered()
	nRead := 0
	for i, it := range s.items {
		if it.write {
			from := len(rc.spans)
			id := rc.begin("router.batch", i)
			err := t.batch(ctx, it)
			rc.end(id)
			if err != nil {
				return err
			}
			var inner time.Duration
			for j := from + 1; j < len(rc.spans); j++ {
				if rc.spans[j].Parent == id {
					inner = max(inner, rc.dur(j))
				}
			}
			route.add(max(rc.dur(id)-inner, 0))
			shard.add(inner)
			continue
		}
		id := rc.begin("router.window", i)
		res, err := t.window(ctx, it.win)
		rc.end(id)
		if err != nil {
			return err
		}
		returned += len(res.Rows)
		// The query passes numbered their windows by position among the
		// reads; the evaluator's time for this window is subtracted.
		gather.add(max(rc.dur(id)-evalByOp[nRead], 0))
		nRead++
	}
	r.set("cluster.route_us_per_batch", medianUS(&route), route.n())
	r.shardCallUS = medianUS(&shard)
	r.set("cluster.window_gather_ms", medianMS(&gather), gather.n())
	r.set("cluster.bytes_gathered_per_row_returned", float64(lc.gathered()-before)/float64(max(returned, 1)), 0)

	ops := 0
	place := lc.rt.Placement()
	id := rc.begin("cluster.owner", 0)
	for _, it := range s.items {
		for _, o := range it.ops {
			if _, err := place.Owner(relNames[o.rel], o.row()); err != nil {
				return err
			}
			ops++
		}
	}
	rc.end(id)
	r.set("cluster.owner_ns_per_tuple", float64(rc.dur(id))/float64(max(ops, 1)), ops)
	return nil
}

// probe sends the traced stream to real daemons in the workload's topology
// over one connection, one request at a time, and books latency and daemon
// CPU per request kind.
func (r *run) probe(ctx context.Context, s *tracedStream, inprocW, inprocR *latencies) error {
	kind := map[string]string{"ingest": "durable", "readonly": "memory", "mixed": "durable", "routed": "routed"}[r.res.Workload]
	t, err := r.launch(ctx, kind)
	if err != nil {
		return err
	}
	cl := newClient(t.front.base)
	defer cl.close()
	for i, p := range s.pre {
		r.attempt(1)
		if status, _, err := cl.postBatch(ctx, p); err != nil || status != 200 {
			return fmt.Errorf("bench: probe preload batch %d: status %d: %v", i, status, err)
		}
	}
	var lat [2]latencies // write, window
	var cpu [2]time.Duration
	var tuples, windows int
	last, err := t.cpu()
	if err != nil {
		return err
	}
	for i, it := range s.items {
		r.attempt(1)
		k := 1
		t0 := time.Now()
		if it.write {
			k = 0
			status, rep, err := cl.postBatch(ctx, it.payload)
			switch {
			case err != nil:
			case expectReject(it.ops):
				// A node refuses the batch whole; a router reports the
				// one refused row.
				if status != 409 && len(rep.Rejected) == 0 {
					err = fmt.Errorf("violating batch answered %d", status)
				}
			case status != 200:
				err = fmt.Errorf("status %d", status)
			default:
				err = rep.applied(len(it.ops))
			}
			if err != nil {
				r.fail("probe write %d: %v", i, err)
				continue
			}
			tuples += len(it.ops)
		} else {
			res, err := cl.getWindow(ctx, it.win.query)
			if err == nil {
				err = wellFormed(it.win, res)
			}
			if err != nil {
				r.fail("probe window %d: %v", i, err)
				continue
			}
			windows++
		}
		lat[k].add(time.Since(t0))
		now, err := t.cpu()
		if err != nil {
			return err
		}
		cpu[k] += now - last
		last = now
	}
	if err := t.check(); err != nil {
		return err
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.set("indepd.cpu_us_per_tuple", us(cpu[0])/float64(max(tuples, 1)), tuples)
	r.set("indepd.cpu_ms_per_window", us(cpu[1])/1000/float64(max(windows, 1)), windows)
	r.set("indepd.http_overhead_write_us", medianUS(&lat[0])-medianUS(inprocW), lat[0].n())
	r.set("indepd.http_overhead_window_us", medianUS(&lat[1])-medianUS(inprocR), lat[1].n())
	rss, err := t.rssPeakMB()
	if err != nil {
		return err
	}
	r.set("indepd.rss_peak_mb", rss, 0)
	r.sanity(s, medianUS(&lat[0]), kind)
	return nil
}

// sanity prints how much of the 1-client write p50 the layer metrics
// account for. An unaccounted layer is a benchmark bug: the gap should stay
// within ±20 %.
func (r *run) sanity(s *tracedStream, writeP50us float64, kind string) {
	m := func(name string) float64 { return r.res.Metrics[name].V }
	var sum float64
	var what string
	if kind == "routed" {
		what = "cluster.route + slowest shard call + http_overhead"
		sum = m("cluster.route_us_per_batch") + r.shardCallUS + m("indepd.http_overhead_write_us")
	} else {
		// The guard's and the deletes' shares of a batch come from their
		// per-tuple costs and the stream's batch shape.
		var ins, dels, n float64
		for _, it := range s.writes() {
			n++
			for _, o := range it.ops {
				if o.del {
					dels++
				} else {
					ins++
				}
			}
		}
		what = "binwire.decode + engine.intern + engine.insert_batch + maintenance.guard + engine.delete"
		sum = m("binwire.decode_us_per_batch") + m("engine.intern_us_per_batch") + m("engine.insert_batch_us") +
			m("maintenance.guard_insert_ns_per_tuple")*ins/n/1000 + m("engine.delete_us_per_op")*dels/n
		if kind == "durable" {
			what += " + wal.append_wait"
			sum += m("wal.append_wait_us_per_batch")
		}
		what += " + indepd.http_overhead_write"
		sum += m("indepd.http_overhead_write_us")
	}
	gap := 100 * (sum - writeP50us) / writeP50us
	fmt.Printf("sanity %s: %s = %.0f us of the 1-client write p50 %.0f us (gap %+.1f%%)\n", r.res.Workload, what, sum, writeP50us, gap)
	if gap > 20 || gap < -20 {
		fmt.Printf("sanity %s: WARNING: more than 20%% of the write path is unaccounted for\n", r.res.Workload)
	}
}
