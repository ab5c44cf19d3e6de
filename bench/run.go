package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"indep"
)

// config is one run's knobs; the seed fixes every input.
type config struct {
	seed    uint64
	seconds float64
	clients int // closed-loop clients, and the cap on connections
}

// value is one reported number with its unit and the sample count behind
// it (0 when the number is a count or a ratio of counts).
type value struct {
	V    float64 `json:"value"`
	Unit string  `json:"unit"`
	N    int     `json:"n,omitempty"`
}

// result is what one run of one workload produced.
type result struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// run is the state of one workload run: the environment, the generator's
// derived inputs, the in-process oracle, and the tally of operations.
type run struct {
	e    *env
	cfg  config
	sch  *indep.Schema
	pool [2][]window

	// oracle is an in-process store fed every acknowledged write; window
	// answers are checked against it wherever the state is quiescent.
	oracle *indep.ConcurrentStore

	// steal marks the seconds the host took the vCPUs away (see steal.go).
	steal *stealWatch

	// shardCallUS is the cluster pass's median slowest-shard call per
	// batch, kept for the routed sanity line only.
	shardCallUS float64

	mu  sync.Mutex
	res *result
}

func newRun(e *env, cfg config, workload string, trace bool) (*run, error) {
	sch, err := indep.Parse(schemaSrc, fdSrc)
	if err != nil {
		return nil, err
	}
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		return nil, err
	}
	return &run{
		e: e, cfg: cfg, sch: sch, pool: windowPool(), oracle: oracle, steal: watchSteal(),
		res: &result{Workload: workload, Trace: trace, Metrics: make(map[string]value)},
	}, nil
}

// attempt books n attempted operations.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.res.Attempted += n
	r.mu.Unlock()
}

// fail books one failed operation: a non-2xx that was not asked for, a
// timeout, or a wrong answer. Failed operations miss every latency figure.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.res.Failed++
	if len(r.res.Notes) < 8 {
		r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) set(name string, v float64, n int) {
	m, ok := findMetric(name)
	if !ok {
		panic("bench: unknown metric " + name)
	}
	r.res.Metrics[name] = value{V: v, Unit: m.unit, N: n}
}

// setLatency reports a class's median and, where the sample supports it,
// its tail percentile.
func (r *run) setLatency(l *latencies, p50 string, tail string, q float64) {
	if l.n() == 0 {
		return
	}
	v, _ := l.q(0.5)
	r.set(p50, v, l.n())
	if t, ok := l.q(q); ok && tail != "" {
		r.set(tail, t, l.n())
	}
}

// topo is one set of daemons serving one workload.
type topo struct {
	kind    string // "memory", "durable" or "routed"
	front   *daemon
	shards  []*daemon // routed only
	dataDir string    // durable only
}

func (t *topo) daemons() []*daemon {
	return append([]*daemon{t.front}, t.shards...)
}

// stores are the daemons that hold rows: the node, or the shards.
func (t *topo) stores() []*daemon {
	if t.kind == "routed" {
		return t.shards
	}
	return []*daemon{t.front}
}

func (t *topo) kill() {
	for _, d := range t.daemons() {
		d.kill()
	}
}

// check fails the run if any daemon has exited on its own.
func (t *topo) check() error {
	for _, d := range t.daemons() {
		if err := d.exited(); err != nil {
			return err
		}
	}
	return nil
}

func (t *topo) rssPeakMB() (float64, error) {
	sum := 0.0
	for _, d := range t.daemons() {
		v, err := d.rssPeakMB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (t *topo) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, d := range t.daemons() {
		v, err := d.cpu()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// launch starts the daemons of a topology and waits until each is ready.
func (r *run) launch(ctx context.Context, kind string) (*topo, error) {
	t := &topo{kind: kind}
	probe := newClient("")
	defer probe.close()
	var err error
	switch kind {
	case "memory":
		t.front, err = r.e.start("node")
	case "durable":
		if t.dataDir, err = r.e.dir("data"); err != nil {
			return nil, err
		}
		t.front, err = r.e.start("node", "-data", t.dataDir)
	case "routed":
		members := ""
		for i := 0; i < 2; i++ {
			s, err := r.e.start("shard")
			if err != nil {
				return nil, err
			}
			t.shards = append(t.shards, s)
			if i > 0 {
				members += ","
			}
			members += fmt.Sprintf("shard%d=%s", i+1, s.base)
		}
		for _, s := range t.shards {
			if _, err := s.ready(ctx, probe.hc); err != nil {
				return nil, err
			}
		}
		t.front, err = r.e.start("router", "-cluster", "-shards", members)
	default:
		panic("bench: unknown topology " + kind)
	}
	if err != nil {
		return nil, err
	}
	if _, err := t.front.ready(ctx, probe.hc); err != nil {
		return nil, err
	}
	return t, nil
}

// closePhase stamps a phase that began at start with its length and the
// seconds of it the host stole.
func (r *run) closePhase(p *phase, start time.Time) {
	p.elapsed = time.Since(start)
	p.dirty = r.steal.mask(start, int(p.elapsed/time.Second))
}

// preload writes the fixed read state through the front daemon with all
// clients in parallel, feeds the oracle, and checks the stored row counts.
func (r *run) preload(ctx context.Context, t *topo, feedOracle bool) (*phase, error) {
	batches := chunk(preloadOps(r.cfg.seed))
	payloads := make([][]byte, len(batches))
	enc := indep.NewBinBatchEncoder(r.sch)
	for i, b := range batches {
		p, err := encodeBatch(enc, b)
		if err != nil {
			return nil, err
		}
		payloads[i] = p
		if feedOracle {
			if _, err := r.oracle.ApplyBinBatch(ctx, p); err != nil {
				return nil, fmt.Errorf("bench: oracle refused preload: %w", err)
			}
		}
	}
	parts := make([]phase, r.cfg.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(t.front.base)
			defer cl.close()
			for i := c; i < len(payloads); i += r.cfg.clients {
				r.attempt(1)
				t0 := time.Now()
				if err := cl.apply(ctx, payloads[i], len(batches[i])); err != nil {
					r.fail("preload batch %d: %v", i, err)
					continue
				}
				parts[c].add(time.Since(start), time.Since(t0), len(batches[i]), 0)
			}
		}(c)
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	want := map[string]int64{"FACT": preloadFact, "DIM1": preloadDim, "DIM2": preloadDim, "DIM3": preloadDim, "DIM4": preloadDim}
	if err := r.checkCounts(ctx, t, want); err != nil {
		return nil, fmt.Errorf("bench: after preload: %w", err)
	}
	return total, nil
}

// checkCounts compares the row counts the storing daemons report against
// want, summed over shards.
func (r *run) checkCounts(ctx context.Context, t *topo, want map[string]int64) error {
	got := make(map[string]int64)
	for _, d := range t.stores() {
		cl := newClient(d.base)
		counts, err := cl.tuples(ctx)
		cl.close()
		if err != nil {
			return err
		}
		for rel, n := range counts {
			got[rel] += n
		}
	}
	for rel, n := range want {
		if got[rel] != n {
			return fmt.Errorf("%s holds %d rows, want %d", rel, got[rel], n)
		}
	}
	return nil
}

// setup launches the topology and preloads it, `times` times over, and
// keeps the last one. Set-up time is the median of the repetitions: launch
// → ready → preload stored and counted. The build of indepd is not in it.
// The preloads come back as one write phase, with each one's throughput.
func (r *run) setup(ctx context.Context, kind string, times int) (t *topo, writes *phase, rates []float64, err error) {
	var durs []float64
	writes = &phase{}
	for i := 0; i < times; i++ {
		if t != nil {
			t.kill()
		}
		start := time.Now()
		if t, err = r.launch(ctx, kind); err != nil {
			return nil, nil, nil, err
		}
		w, err := r.preload(ctx, t, i == 0)
		if err != nil {
			return nil, nil, nil, err
		}
		durs = append(durs, time.Since(start).Seconds())
		writes.merge(w)
		rates = append(rates, w.perSecond())
	}
	r.set("setup_s", median(durs), len(durs))
	return t, writes, rates, nil
}

// expectations evaluates every pool window on the oracle.
func (r *run) expectations() (map[string]string, error) {
	want := make(map[string]string)
	for _, list := range r.pool {
		for _, w := range list {
			res, err := r.oracle.Query(w.q)
			if err != nil {
				return nil, fmt.Errorf("bench: oracle window %s: %w", w.query, err)
			}
			want[w.query] = canon(res)
		}
	}
	return want, nil
}

// warm runs one window per distinct attribute set so every plan is cached
// and lazy set-up is finished before timing starts.
func (r *run) warm(ctx context.Context, t *topo) error {
	cl := newClient(t.front.base)
	defer cl.close()
	seen := make(map[string]bool)
	for _, list := range r.pool {
		for _, w := range list {
			key := fmt.Sprint(w.q.Attrs)
			if seen[key] {
				continue
			}
			seen[key] = true
			if _, err := cl.getWindow(ctx, w.query); err != nil {
				return fmt.Errorf("bench: warm-up: %w", err)
			}
		}
	}
	return nil
}

// read runs the one closed-loop reader against base for d. It is one
// reader, not nproc: a join window keeps a core busy for ~150 ms, two
// readers keep both of the sandbox's vCPUs busy, and the figures then follow
// whether the host has the two vCPUs on one physical core or two (join p50
// 170 ms or 240 ms, flipping every few minutes). One reader leaves the
// second vCPU to the client and repeats to within a percent. Each window is
// checked against want when the state is quiescent (want non-nil), or for
// well-formedness when writes race it.
func (r *run) read(ctx context.Context, base string, d time.Duration, want map[string]string) *phase {
	p := &phase{}
	start := time.Now()
	deadline := start.Add(d)
	cl := newClient(base)
	defer cl.close()
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		w := pickWindow(r.pool, r.cfg.seed, 0, i)
		r.attempt(1)
		t0 := time.Now()
		res, err := cl.getWindow(ctx, w.query)
		lat := time.Since(t0)
		if err == nil {
			if want != nil {
				if got := canon(res); got != want[w.query] {
					err = fmt.Errorf("window %s: got %.80s, want %.80s", w.query, got, want[w.query])
				}
			} else {
				err = wellFormed(w, res)
			}
		}
		if err != nil {
			r.fail("%v", err)
			continue
		}
		p.add(time.Since(start), lat, 1, w.class)
	}
	r.closePhase(p, start)
	return p
}

// setRead reports a read phase under the window_* names.
func (r *run) setRead(p *phase) {
	r.set("window_qps", p.perSecond(), p.work())
	r.setLatency(p.latencies(classLocal), "window_local_p50_ms", "window_local_p90_ms", 0.9)
	r.setLatency(p.latencies(classJoin), "window_join_p50_ms", "window_join_p90_ms", 0.9)
	r.noteSteal("read", p.dirty)
}

// setWrite reports a write phase under the write_* names; perSecond is the
// phase's own rate, or the median over set-ups when the phase is a preload.
func (r *run) setWrite(p *phase, perSecond float64) {
	r.set("write_tuples_per_s", perSecond, p.work())
	r.setLatency(p.latencies(0), "write_p50_ms", "write_p99_ms", 0.99)
	r.noteSteal("write", p.dirty)
}

// noteSteal says what a phase left out, so a reader of the report knows.
func (r *run) noteSteal(phase string, dirty []bool) {
	n := 0
	for _, d := range dirty {
		if d {
			n++
		}
	}
	switch {
	case n == 0:
	case usable(dirty):
		fmt.Printf("%s %s phase: the host stole CPU in %d of %d seconds; they are left out\n", r.res.Workload, phase, n, len(dirty))
	default:
		fmt.Printf("%s %s phase: the host stole CPU in %d of %d seconds, too many to leave out; the figures include them\n", r.res.Workload, phase, n, len(dirty))
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// sortedNames lists a metric map's names in order.
func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
