package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"indep"
	"indep/internal/obs"
)

// Options tunes a Router. The zero value is usable: every knob has a
// default chosen for a small static cluster.
type Options struct {
	// Parts is the number of hash ranges each partitionable relation is
	// split into; 0 means twice the shard count (every shard owns ~2 ranges
	// of every hot relation, smoothing the split without fragmenting reads).
	Parts int
	// VNodes is the number of ring points per member (default 64).
	VNodes int
	// Retries is how many times a failed forward or gather is retried
	// against the same shard before the shard is reported down (default 2).
	// Retries mean at-least-once delivery: re-applying an accepted insert
	// or an applied delete is a no-op, so redelivery converges — except for
	// a payload that both deletes a tuple and inserts one conflicting with
	// it, whose re-application can flip the insert's outcome. Clients
	// needing exact reports for that shape must split it into two payloads.
	Retries int
	// Backoff is the wait before the first retry, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Timeout bounds each shard HTTP request (default 10s).
	Timeout time.Duration
	// Transports overrides the per-shard transport (in-process shards for
	// benchmarks and fault tests); absent members get an HTTPTransport.
	Transports map[string]Transport
	// Logger receives routing diagnostics; nil discards them.
	Logger *slog.Logger
}

// Router is the cluster routing tier: it owns the placement, splits writes
// per owning shard, forwards them over the binary batch wire, and answers
// window reads on the owning shards or over gathered fragments. A Router is
// safe for concurrent use.
type Router struct {
	sch      *indep.Schema
	an       *indep.Analysis
	members  []Member
	place    *Placement
	tr       map[string]Transport
	opts     Options
	logger   *slog.Logger
	fallback string // designated shard when the schema is not independent

	mu     sync.Mutex
	health map[string]*ShardStatus

	batches    *obs.Counter
	ops        *obs.Counter
	rejected   *obs.Counter
	gathers    *obs.Counter
	proxied    *obs.Counter
	retries    *obs.Counter
	fwdErrs    map[string]*obs.Counter
	fwdSeconds map[string]*obs.Histogram
}

// inc and addN tolerate a router whose metrics were never registered.
func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func addN(c *obs.Counter, n uint64) {
	if c != nil {
		c.Add(n)
	}
}

// ShardStatus is one shard's health as the router sees it.
type ShardStatus struct {
	Name      string    `json:"name"`
	URL       string    `json:"url"`
	Healthy   bool      `json:"healthy"`
	LastError string    `json:"lastError,omitempty"`
	LastCheck time.Time `json:"lastCheck"`
	Checks    uint64    `json:"checks"`
	Failures  uint64    `json:"failures"`
}

// NewRouter analyzes the schema, computes the placement, and connects the
// shard transports. A non-independent schema does not fail construction —
// the router degrades to a single serialized node (every relation pinned to
// one shard, windows proxied wholesale) and says so loudly, because that is
// a deployment mistake worth noticing but not an outage worth causing.
func NewRouter(sch *indep.Schema, members []Member, opts Options) (*Router, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	an, err := sch.Analyze()
	if err != nil {
		return nil, err
	}
	if opts.Parts == 0 {
		opts.Parts = 2 * len(members)
	}
	if opts.VNodes == 0 {
		opts.VNodes = 64
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Backoff == 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	r := &Router{
		sch:     sch,
		an:      an,
		members: members,
		place:   PlanPlacement(sch, an, members, opts.Parts, opts.VNodes),
		tr:      make(map[string]Transport, len(members)),
		opts:    opts,
		logger:  logger,
		health:  make(map[string]*ShardStatus, len(members)),
	}
	for _, m := range members {
		if t := opts.Transports[m.Name]; t != nil {
			r.tr[m.Name] = t
		} else {
			r.tr[m.Name] = NewHTTPTransport(m, opts.Timeout)
		}
		r.health[m.Name] = &ShardStatus{Name: m.Name, URL: m.URL, Healthy: true}
	}
	if !an.Independent {
		r.fallback = r.place.Owners(sch.Relations()[0])[0]
		logger.Warn("schema is NOT independent: cluster mode degrades to a single serialized node",
			"reason", an.Reason, "shard", r.fallback,
			"detail", "every relation is pinned to one shard and windows are proxied wholesale; "+
				"the remaining shards serve nothing — fix the schema design to scale writes")
	} else {
		for _, rel := range sch.Relations() {
			key := r.place.PartitionKey(rel)
			if key == nil {
				logger.Info("placement: relation pinned whole (no common FD left-hand side)",
					"relation", rel, "shard", r.place.Owners(rel)[0])
			} else {
				logger.Info("placement: relation hash-partitioned",
					"relation", rel, "key", key, "parts", opts.Parts, "shards", r.place.Owners(rel))
			}
		}
	}
	return r, nil
}

// Fallback reports whether the router is in single-node fallback mode
// (non-independent schema) and which shard serves everything.
func (r *Router) Fallback() (string, bool) { return r.fallback, r.fallback != "" }

// Schema returns the schema the router routes for.
func (r *Router) Schema() *indep.Schema { return r.sch }

// Placement returns the router's placement, for status reporting.
func (r *Router) Placement() *Placement { return r.place }

// RegisterMetrics files the router's indep_cluster_* metrics.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("indep_cluster_shards", "Shards in the static membership.",
		func() float64 { return float64(len(r.members)) })
	reg.GaugeFunc("indep_cluster_unhealthy_shards", "Shards whose last health check failed.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			n := 0
			for _, h := range r.health {
				if !h.Healthy {
					n++
				}
			}
			return float64(n)
		})
	r.batches = reg.Counter("indep_cluster_batches_total", "Client batches routed.")
	r.ops = reg.Counter("indep_cluster_ops_total", "Operations forwarded to shards.")
	r.rejected = reg.Counter("indep_cluster_rejected_ops_total", "Operations shards rejected as constraint violations.")
	r.gathers = reg.Counter("indep_cluster_window_gathers_total", "Windows evaluated on the router over gathered fragments.")
	r.proxied = reg.Counter("indep_cluster_window_proxied_total", "Windows evaluated on the owning shards.")
	r.retries = reg.Counter("indep_cluster_forward_retries_total", "Forward attempts retried after a shard error.")
	r.fwdErrs = make(map[string]*obs.Counter, len(r.members))
	r.fwdSeconds = make(map[string]*obs.Histogram, len(r.members))
	for _, m := range r.members {
		r.fwdErrs[m.Name] = reg.Counter("indep_cluster_forward_errors_total",
			"Forwards that failed after all retries.", obs.L("shard", m.Name))
		r.fwdSeconds[m.Name] = reg.Histogram("indep_cluster_forward_seconds",
			"Per-shard forward latency (batch sub-forwards, shard windows and fragment gathers).", 1e-9, obs.L("shard", m.Name))
	}
}

// note records a shard interaction's outcome in the health table.
func (r *Router) note(shard string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.health[shard]
	if h == nil {
		return
	}
	h.Checks++
	h.LastCheck = time.Now()
	if err != nil {
		h.Failures++
		h.Healthy = false
		h.LastError = err.Error()
	} else {
		h.Healthy = true
		h.LastError = ""
	}
}

// withRetry runs fn against the shard with the configured retry/backoff
// schedule, recording latency, retries, and health.
func (r *Router) withRetry(ctx context.Context, shard string, fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		start := time.Now()
		err = fn()
		if h := r.fwdSeconds[shard]; h != nil {
			h.Observe(int64(time.Since(start)))
		}
		if err == nil || attempt >= r.opts.Retries || ctx.Err() != nil {
			break
		}
		inc(r.retries)
		r.logger.Debug("retrying shard", "shard", shard, "attempt", attempt+1, "error", err)
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(r.opts.Backoff << attempt):
			continue
		}
		break
	}
	r.note(shard, err)
	if err != nil {
		if c := r.fwdErrs[shard]; c != nil {
			c.Inc()
		}
	}
	return err
}

// subBatch is the slice of a client batch owned by one shard: the encoder
// assembling its payload and, in payload frame order (inserts in arrival
// order, then deletes in arrival order — the same order the shard's report
// indexes), each local op's index in the client batch.
type subBatch struct {
	enc     *indep.BinBatchEncoder
	insIdx  []int
	delIdx  []int
	someErr error
}

func (sb *subBatch) index() []int { return append(append([]int(nil), sb.insIdx...), sb.delIdx...) }

// Batch splits a client binary batch per owning shard, forwards the pieces
// concurrently in partial mode, and reassembles the shards' per-op reports
// into one report indexed like the client's payload. Rejections are per-op
// and do not fail the call. A non-nil error means at least one shard could
// not be reached or failed mid-batch; the report still covers every shard
// that answered, and because applied inserts and deletes are idempotent the
// client may retry the whole payload (see Options.Retries for the one
// delete-unshields-insert shape that is not a fixpoint). A malformed
// payload returns (nil, error) with nothing forwarded.
func (r *Router) Batch(ctx context.Context, payload []byte) (*indep.BatchReport, error) {
	ops, err := r.sch.DecodeBinBatch(payload)
	if err != nil {
		return nil, err
	}
	inc(r.batches)
	addN(r.ops, uint64(len(ops)))
	subs := make(map[string]*subBatch)
	for i, op := range ops {
		owner, err := r.place.Owner(op.Rel, op.Row)
		if err != nil {
			return nil, err
		}
		sb := subs[owner]
		if sb == nil {
			sb = &subBatch{enc: indep.NewBinBatchEncoder(r.sch)}
			subs[owner] = sb
		}
		if op.Delete {
			err = sb.enc.Delete(op.Rel, op.Row)
			sb.delIdx = append(sb.delIdx, i)
		} else {
			err = sb.enc.Add(op.Rel, op.Row)
			sb.insIdx = append(sb.insIdx, i)
		}
		if err != nil {
			return nil, err
		}
	}

	type shardResult struct {
		shard string
		rep   *indep.BatchReport
		err   error
	}
	results := make(chan shardResult, len(subs))
	for shard, sb := range subs {
		go func(shard string, sb *subBatch) {
			var rep *indep.BatchReport
			err := r.withRetry(ctx, shard, func() error {
				var err error
				rep, err = r.tr[shard].ApplyPartial(ctx, sb.enc.Bytes())
				return err
			})
			results <- shardResult{shard: shard, rep: rep, err: err}
		}(shard, sb)
	}

	report := &indep.BatchReport{Ops: len(ops)}
	var failed []string
	var firstErr error
	for range subs {
		res := <-results
		if res.err != nil {
			failed = append(failed, res.shard)
			if firstErr == nil {
				firstErr = res.err
			}
			if res.rep == nil {
				continue
			}
		}
		idx := subs[res.shard].index()
		report.Processed += res.rep.Processed
		report.Applied += res.rep.Applied
		report.Changed += res.rep.Changed
		for _, o := range res.rep.Rejected {
			report.Rejected = append(report.Rejected,
				indep.OpOutcome{Index: idx[o.Index], Code: o.Code, Error: o.Error})
		}
	}
	sort.Slice(report.Rejected, func(i, j int) bool { return report.Rejected[i].Index < report.Rejected[j].Index })
	addN(r.rejected, uint64(len(report.Rejected)))
	if firstErr != nil {
		sort.Strings(failed)
		return report, fmt.Errorf("cluster: %d of %d shards failed (%v): %w",
			len(failed), len(subs), failed, firstErr)
	}
	return report, nil
}

// Insert routes one insert. A rejection surfaces as the shard's error,
// matching ConcurrentStore.Insert (test with indep.Rejected).
func (r *Router) Insert(ctx context.Context, rel string, row map[string]string) error {
	_, err := r.one(ctx, rel, row, false)
	return err
}

// Delete routes one delete and reports whether the owning shard held the
// tuple; deleting an absent tuple is a no-op.
func (r *Router) Delete(ctx context.Context, rel string, row map[string]string) (bool, error) {
	return r.one(ctx, rel, row, true)
}

// one routes a single operation and reports whether it changed the state.
func (r *Router) one(ctx context.Context, rel string, row map[string]string, del bool) (bool, error) {
	enc := indep.NewBinBatchEncoder(r.sch)
	var err error
	if del {
		err = enc.Delete(rel, row)
	} else {
		err = enc.Add(rel, row)
	}
	if err != nil {
		return false, err
	}
	rep, err := r.Batch(ctx, enc.Bytes())
	if err != nil {
		return false, err
	}
	if len(rep.Rejected) > 0 {
		return false, fmt.Errorf("%s: %w", rep.Rejected[0].Error, indep.ErrRejected)
	}
	return rep.Changed > 0, nil
}

// Window answers a window query byte-identically to a single node holding
// all the data, over one of two read paths chosen from the relations the
// plan consults (Schema.WindowFetches); window evaluation is a pure
// function of their contents.
//
// A window consulting one relation is evaluated on the data: the query
// goes to that relation's owners and their answers are merged (see
// mergeAnswers). The placement makes the relation the disjoint union of its
// fragments, so the window over the union is the union of the owners'
// windows. A Where binding every partition-key attribute names the one
// owner holding every matching row, and only it is asked. Fallback mode
// (non-independent schema) is the same routine with the designated shard
// as the one owner. A one-owner answer is returned as the owner gave it,
// Explain included.
//
// A window consulting two or more relations is evaluated on the router
// (see gather): of each relation R it fetches σ_{Where∩R}(R) through the
// owners' GET /v1/window when Where selects on R, the whole fragment
// otherwise, assembles a scratch state and evaluates there.
//
// Each owner answers from its own consistent snapshot; an answer spanning
// shards is only point-in-time consistent when no writes race the query.
// The router always answers with rendered Rows: BinaryResult is ignored.
func (r *Router) Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	q.BinaryResult = false
	fetches, fast, err := r.sch.WindowFetches(q)
	if err != nil {
		return nil, err
	}
	out, err := windowOutput(q)
	if err != nil {
		return nil, err
	}
	switch {
	case !fast:
		return r.evalOnOwners(ctx, q, []string{r.fallback}, true)
	case len(fetches) == 1:
		shards, disjoint, err := r.windowOwners(fetches[0].Relation, q, out)
		if err != nil {
			return nil, err
		}
		return r.evalOnOwners(ctx, q, shards, disjoint)
	}
	return r.gather(ctx, q, fetches)
}

// windowOutput checks q's Project against its window, so that a malformed
// query fails on the router as a client error rather than on every owner
// as a shard error (Schema.WindowFetches has checked Where), and returns
// the output attributes: Project if set, else Attrs.
func windowOutput(q indep.WindowQuery) (map[string]bool, error) {
	x := make(map[string]bool, len(q.Attrs))
	for _, a := range q.Attrs {
		x[a] = true
	}
	if len(q.Project) == 0 {
		return x, nil
	}
	out := make(map[string]bool, len(q.Project))
	for _, a := range q.Project {
		if !x[a] {
			return nil, fmt.Errorf("cluster: projection attribute %q is not in the window", a)
		}
		out[a] = true
	}
	return out, nil
}

// windowOwners returns the shards that evaluate a window consulting only
// rel, and whether their answers are disjoint. A Where binding every
// partition-key attribute selects rows of one hash range, so only its owner
// is asked. Otherwise every owner is, and the answers are disjoint when
// every key attribute is an output attribute or bound by Where: two equal
// output rows then agree on the key, so both come from one shard, whose
// own answer already holds the row once.
func (r *Router) windowOwners(rel string, q indep.WindowQuery, out map[string]bool) (shards []string, disjoint bool, err error) {
	bound, covered := true, true
	for _, a := range r.place.PartitionKey(rel) {
		_, w := q.Where[a]
		bound = bound && w
		covered = covered && (w || out[a])
	}
	if bound {
		owner, err := r.place.Owner(rel, q.Where)
		return []string{owner}, true, err
	}
	return r.place.Owners(rel), covered, nil
}

// evalOnOwners sends the window to each shard and merges the answers. With
// answers that may overlap, the owners are asked for every row (Limit 0),
// because Total has to count the distinct rows of their union.
func (r *Router) evalOnOwners(ctx context.Context, q indep.WindowQuery, shards []string, disjoint bool) (*indep.WindowResult, error) {
	inc(r.proxied)
	sub := q
	if len(shards) > 1 && !disjoint {
		sub.Limit = 0
	}
	parts := make([]*indep.WindowResult, len(shards))
	if err := r.fanOut(ctx, shards, func(i int) (err error) {
		parts[i], err = r.tr[shards[i]].Window(ctx, sub)
		return err
	}); err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return mergeAnswers(q, parts, disjoint), nil
}

// mergeAnswers combines the owners' answers to q into the answer of one
// node holding all their rows:
//   - Rows are ordered by the NUL-joined rendered key, equal keys by their
//     columns — a single node's order — and cut to Limit. Disjoint answers
//     were limited by their owners already: each of the union's first
//     Limit rows is among the first Limit rows of the answer holding it.
//   - Total is the sum of the owners' Totals when the answers are disjoint.
//     Otherwise duplicate rows are dropped and Total is the number of
//     distinct rows.
//   - FastPath holds (only an independent schema has several owners), and
//     PlanCached only if every owner's plan was cached.
//   - Explain sums each relation's scanned rows across the owners, takes
//     Mode and Pruned from any owner (the plan depends on the schema only),
//     reports SnapshotReused only if every owner reused its snapshot, and
//     StoreVersion 0, since no single version describes the answer.
func mergeAnswers(q indep.WindowQuery, parts []*indep.WindowResult, disjoint bool) *indep.WindowResult {
	type keyed struct {
		key string
		row map[string]string
	}
	attrs := parts[0].Attrs
	res := &indep.WindowResult{Attrs: attrs, FastPath: true, PlanCached: true}
	var rows []keyed
	var k strings.Builder
	for _, p := range parts {
		res.Total += p.Total
		res.PlanCached = res.PlanCached && p.PlanCached
		for _, row := range p.Rows {
			k.Reset()
			for _, a := range attrs {
				k.WriteString(row[a])
				k.WriteByte(0)
			}
			rows = append(rows, keyed{key: k.String(), row: row})
		}
	}
	cmp := func(a, b keyed) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		for _, name := range attrs {
			if c := strings.Compare(a.row[name], b.row[name]); c != 0 {
				return c
			}
		}
		return 0
	}
	slices.SortFunc(rows, cmp)
	if !disjoint {
		rows = slices.CompactFunc(rows, func(a, b keyed) bool { return cmp(a, b) == 0 })
		res.Total = len(rows)
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	res.Rows = make([]map[string]string, len(rows))
	for i, kr := range rows {
		res.Rows[i] = kr.row
	}
	if q.Explain && parts[0].Explain != nil {
		res.Explain = mergeExplain(parts)
	}
	return res
}

// mergeExplain is mergeAnswers' Explain rule.
func mergeExplain(parts []*indep.WindowResult) *indep.WindowExplain {
	first := parts[0].Explain
	ex := &indep.WindowExplain{Mode: first.Mode, PlanCached: true, SnapshotReused: true, Pruned: first.Pruned}
	scanned := make(map[string]int, len(first.Relations))
	for _, p := range parts {
		if p.Explain == nil {
			continue
		}
		ex.PlanCached = ex.PlanCached && p.Explain.PlanCached
		ex.SnapshotReused = ex.SnapshotReused && p.Explain.SnapshotReused
		for _, rs := range p.Explain.Relations {
			scanned[rs.Relation] += rs.Rows
		}
	}
	for _, rs := range first.Relations {
		ex.Relations = append(ex.Relations, indep.RelationScan{Relation: rs.Relation, Rows: scanned[rs.Relation]})
	}
	return ex
}

// gather evaluates the window on the router over a scratch state S'
// assembled from the consulted relations. A relation R whose fetch carries
// a selection sel_R (WindowFetch.Where: the share of Where that every tuple
// of R the evaluation reads satisfies) is fetched as the window
// σ_{sel_R}[attrs(R)] from the owners windowOwners picks, one when sel_R
// binds R's partition key; any other R is fetched whole from every owner.
// All fetches go out in one fanOut.
//
// The answer is the one over the state S the shards hold together:
//   - A shard's window over R's scheme is taken over part of S, so it holds
//     only tuples of R's total projection [attrs(R)](S), and the owners'
//     windows together hold σ_{sel_R}(R). So σ_{sel_R}(R) ⊆ S'_R ⊆ R ∪
//     [attrs(R)](S).
//   - Adding tuples of a total projection to a state leaves its weak
//     instances unchanged, so S' is consistent and σ_W[X](S') ⊆ σ_W[X](S).
//   - Every answer row over S extends (Theorem 5) a contributor's tuple
//     through tuples the extension tableaux read, and each of those agrees
//     with the row on its relation's sel_R, so all of them are in S' and
//     the row is an answer over S' too.
//
// Explain counts the scratch state's rows. They are the single node's
// unless a fetched window held total-projection tuples outside R itself.
func (r *Router) gather(ctx context.Context, q indep.WindowQuery, fetches []indep.WindowFetch) (*indep.WindowResult, error) {
	inc(r.gathers)
	type fetch struct {
		rel, shard string
		sel        *indep.WindowQuery // nil: the whole fragment
	}
	var calls []fetch
	for _, f := range fetches {
		if len(f.Where) == 0 {
			for _, shard := range r.place.Owners(f.Relation) {
				calls = append(calls, fetch{rel: f.Relation, shard: shard})
			}
			continue
		}
		attrs, err := r.sch.RelationAttrs(f.Relation)
		if err != nil {
			return nil, err
		}
		sel := &indep.WindowQuery{Attrs: attrs, Where: f.Where}
		shards, _, err := r.windowOwners(f.Relation, *sel, nil)
		if err != nil {
			return nil, err
		}
		for _, shard := range shards {
			calls = append(calls, fetch{rel: f.Relation, shard: shard, sel: sel})
		}
	}
	shards := make([]string, len(calls))
	for i, c := range calls {
		shards[i] = c.shard
	}
	frags := make([]*indep.WindowResult, len(calls))
	if err := r.fanOut(ctx, shards, func(i int) (err error) {
		if c := calls[i]; c.sel != nil {
			frags[i], err = r.tr[c.shard].Window(ctx, *c.sel)
		} else {
			frags[i], err = r.tr[c.shard].Relation(ctx, c.rel)
		}
		return err
	}); err != nil {
		return nil, err
	}
	scratch := r.sch.NewDatabase()
	for i, frag := range frags {
		for _, row := range frag.Rows {
			if err := scratch.Insert(calls[i].rel, row); err != nil {
				return nil, fmt.Errorf("cluster: assembling %s fragment from %s: %w",
					calls[i].rel, calls[i].shard, err)
			}
		}
	}
	return scratch.Query(q)
}

// fanOut runs call(i) against shards[i] for every i, concurrently and each
// under withRetry, and returns the first error in shard order.
func (r *Router) fanOut(ctx context.Context, shards []string, call func(i int) error) error {
	if len(shards) == 1 {
		return r.withRetry(ctx, shards[0], func() error { return call(0) })
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.withRetry(ctx, shard, func() error { return call(i) })
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckHealth pings every shard once, concurrently, updating and returning
// the health table. Pings use the same retry/backoff as forwards.
func (r *Router) CheckHealth(ctx context.Context) []ShardStatus {
	var wg sync.WaitGroup
	for _, m := range r.members {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			r.withRetry(ctx, name, func() error { return r.tr[name].Ping(ctx) })
		}(m.Name)
	}
	wg.Wait()
	return r.Health()
}

// Health returns the current health table, sorted by shard name, without
// probing anything.
func (r *Router) Health() []ShardStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardStatus, 0, len(r.health))
	for _, h := range r.health {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RelationPlacement is one relation's row in the cluster status report.
type RelationPlacement struct {
	Relation     string   `json:"relation"`
	PartitionKey []string `json:"partitionKey,omitempty"`
	Parts        int      `json:"parts"`
	Shards       []string `json:"shards"`
}

// Status is the /v1/cluster/status document.
type Status struct {
	Mode      string              `json:"mode"` // "sharded" or "fallback"
	Reason    string              `json:"reason,omitempty"`
	Shards    []ShardStatus       `json:"shards"`
	Relations []RelationPlacement `json:"relations"`
}

// Status reports the routing mode, placement, and shard health.
func (r *Router) Status() *Status {
	st := &Status{Mode: "sharded", Shards: r.Health()}
	if r.fallback != "" {
		st.Mode = "fallback"
		st.Reason = fmt.Sprintf("schema is not independent (%s); all relations pinned to shard %s",
			r.an.Reason, r.fallback)
	}
	for _, rel := range r.sch.Relations() {
		rp := RelationPlacement{
			Relation:     rel,
			PartitionKey: r.place.PartitionKey(rel),
			Shards:       r.place.Owners(rel),
		}
		if rp.PartitionKey != nil {
			rp.Parts = r.place.Parts()
		} else {
			rp.Parts = 1
		}
		st.Relations = append(st.Relations, rp)
	}
	return st
}
