package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
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
	// Retries is how many times a failed shard call is retried against the
	// same shard before the shard is reported down (default 2).
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

// vnodes is the number of ring points each member projects (see NewRing).
const vnodes = 64

// Router is the cluster routing tier: it owns the placement, splits writes
// per owning shard, forwards them over the binary batch wire, and answers
// window reads on the owning shards or over gathered windows. A Router is
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
	health map[string]*ShardStatus // a failed shard call counts once, in Failures

	batches    obs.Counter
	ops        obs.Counter
	rejected   obs.Counter
	gathers    obs.Counter
	proxied    obs.Counter
	retries    obs.Counter
	fwdSeconds map[string]*obs.Histogram // per shard, one observation per attempt
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
		sch:        sch,
		an:         an,
		members:    members,
		place:      PlanPlacement(sch, an, members, opts.Parts, vnodes),
		tr:         make(map[string]Transport, len(members)),
		opts:       opts,
		logger:     logger,
		health:     make(map[string]*ShardStatus, len(members)),
		fwdSeconds: make(map[string]*obs.Histogram, len(members)),
	}
	for _, m := range members {
		if t := opts.Transports[m.Name]; t != nil {
			r.tr[m.Name] = t
		} else {
			r.tr[m.Name] = NewHTTPTransport(m, opts.Timeout)
		}
		r.health[m.Name] = &ShardStatus{Name: m.Name, URL: m.URL, Healthy: true}
		r.fwdSeconds[m.Name] = &obs.Histogram{}
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
	reg.CounterFunc("indep_cluster_batches_total", "Client batches routed.", r.batches.Value)
	reg.CounterFunc("indep_cluster_ops_total", "Operations forwarded to shards.", r.ops.Value)
	reg.CounterFunc("indep_cluster_rejected_ops_total", "Operations shards rejected as constraint violations.", r.rejected.Value)
	reg.CounterFunc("indep_cluster_window_gathers_total", "Windows evaluated on the router over the consulted relations' windows fetched from the shards.", r.gathers.Value)
	reg.CounterFunc("indep_cluster_window_proxied_total", "Windows evaluated on the owning shards.", r.proxied.Value)
	reg.CounterFunc("indep_cluster_forward_retries_total", "Shard call attempts retried after a shard error.", r.retries.Value)
	for _, m := range r.members {
		h := r.health[m.Name]
		shard := obs.L("shard", m.Name)
		reg.CounterFunc("indep_cluster_forward_errors_total",
			"Shard calls (batch forwards, window fetches, health pings) that failed after all retries.",
			func() uint64 { r.mu.Lock(); defer r.mu.Unlock(); return h.Failures }, shard)
		reg.RegisterHistogram("indep_cluster_forward_seconds",
			"Per-shard call latency, one observation per attempt (batch forwards, window fetches, health pings).",
			1e-9, r.fwdSeconds[m.Name], shard)
	}
}

// note records a shard interaction's outcome in the health table.
func (r *Router) note(shard string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.health[shard]
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
		r.fwdSeconds[shard].ObserveSince(start)
		if err == nil || attempt >= r.opts.Retries || ctx.Err() != nil {
			break
		}
		r.retries.Inc()
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
	return err
}

// Batch splits a client binary batch per owning shard, forwards the pieces
// concurrently in partial mode, and reassembles the shards' per-op reports
// into one report indexed like the client's payload. The split reads each
// op's partition-key names straight from the payload and hands every shard
// its ops under the client's own value ids (indep.Schema.SplitBinBatch), so
// no row is built and nothing is re-interned. Rejections are per-op and do
// not fail the call. A non-nil error means at least one shard could not be
// reached or failed mid-batch; it names every failed shard and wraps the
// first in membership order. The report still covers every shard that
// answered, and because applied inserts and deletes are idempotent the
// client may retry the whole payload (see Options.Retries for the one
// delete-unshields-insert shape that is not a fixpoint). A malformed
// payload returns (nil, error) with nothing forwarded.
func (r *Router) Batch(ctx context.Context, payload []byte) (*indep.BatchReport, error) {
	// Placement indexes shards in membership order, as r.members lists them.
	subs, index, err := r.sch.SplitBinBatch(payload, len(r.members), r.place.route)
	if err != nil {
		return nil, err
	}
	ops := 0
	for _, idx := range index {
		ops += len(idx)
	}
	r.batches.Inc()
	r.ops.Add(uint64(ops))

	dests := make([]int, 0, len(subs)) // membership indexes of the shards that get a piece
	shards := make([]string, 0, len(subs))
	for d, sub := range subs {
		if sub != nil {
			dests = append(dests, d)
			shards = append(shards, r.members[d].Name)
		}
	}
	reps := make([]*indep.BatchReport, len(shards))
	errs := r.fanOut(ctx, shards, func(i int) (err error) {
		reps[i], err = r.tr[shards[i]].ApplyPartial(ctx, subs[dests[i]])
		return err
	})

	report := &indep.BatchReport{Ops: ops}
	var failed []string
	for i, rep := range reps {
		if errs[i] != nil {
			failed = append(failed, shards[i])
		}
		if rep == nil {
			continue
		}
		idx := index[dests[i]]
		report.Processed += rep.Processed
		report.Applied += rep.Applied
		report.Changed += rep.Changed
		for _, o := range rep.Rejected {
			report.Rejected = append(report.Rejected,
				indep.OpOutcome{Index: idx[o.Index], Code: o.Code, Error: o.Error})
		}
	}
	sort.Slice(report.Rejected, func(i, j int) bool { return report.Rejected[i].Index < report.Rejected[j].Index })
	r.rejected.Add(uint64(len(report.Rejected)))
	if err := firstError(errs); err != nil {
		sort.Strings(failed)
		return report, fmt.Errorf("cluster: %d of %d shards failed (%v): %w",
			len(failed), len(shards), failed, err)
	}
	return report, nil
}

// Window answers a window query byte-identically to a single node holding
// all the data, over one of two read paths chosen from the relations the
// plan consults (Schema.WindowFetches); window evaluation is a pure
// function of their contents.
//
// A window consulting one relation is evaluated on the data: the query
// goes to that relation's owners, which answer in the binary window
// encoding, and their answers are merged (see evalOnOwners). The placement
// makes the relation the disjoint union of its fragments, so the window
// over the union is the union of the owners' windows. A Where binding every
// partition-key attribute names the one owner holding every matching row,
// and only it is asked: a star schema's dimension point window is one such
// forward. Fallback mode (non-independent schema) is the same routine with
// the designated shard as the one owner.
//
// A window consulting two or more relations is evaluated on the router
// (see gather): of each relation R it fetches the window over R's scheme
// selected by Where's share of R (nothing, when Where does not touch R)
// through the owners' GET /v1/window, assembles a scratch state and
// evaluates there.
//
// Each owner answers from its own consistent snapshot; an answer spanning
// shards is only point-in-time consistent when no writes race the query.
// Like a store, the router answers with Bin (Rows nil) when q sets
// BinaryResult and with rendered Rows otherwise, Explain attached either
// way when asked.
func (r *Router) Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	fetches, fast, cached, err := r.sch.WindowFetches(q)
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
	return r.gather(ctx, q, fetches, cached)
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

// evalOnOwners sends the window to each shard, asking for the binary
// encoding, and parses every answer (indep.ParseWindowAnswer), so a corrupt
// reply is the shard's error and never reaches the client. One owner's
// answer is the answer, forwarded as it came. Several owners' answers are
// merged by indep.MergeWindowAnswers; with answers that may overlap, the
// owners are asked for every row (Limit 0), because Total has to count the
// distinct rows of their union. A client that did not ask for the binary
// encoding gets the same answer rendered as rows.
//
// A merged Explain sums each relation's scanned rows across the owners,
// takes Mode and Pruned from any owner (the plan depends on the schema
// only), reports SnapshotReused only if every owner reused its snapshot,
// and StoreVersion 0, since no single version describes the answer.
func (r *Router) evalOnOwners(ctx context.Context, q indep.WindowQuery, shards []string, disjoint bool) (*indep.WindowResult, error) {
	r.proxied.Inc()
	sub := q
	sub.BinaryResult = true
	if len(shards) > 1 && !disjoint {
		sub.Limit = 0
	}
	parts := make([]*indep.WindowResult, len(shards))
	answers := make([]*indep.WindowAnswer, len(shards))
	if err := firstError(r.fanOut(ctx, shards, func(i int) (err error) {
		if parts[i], err = r.tr[shards[i]].Window(ctx, sub); err != nil {
			return err
		}
		if answers[i], err = indep.ParseWindowAnswer(parts[i].Bin); err != nil {
			return &ShardError{Shard: shards[i], Status: http.StatusOK, Err: fmt.Errorf("bad window answer: %w", err)}
		}
		return nil
	})); err != nil {
		return nil, err
	}
	var res *indep.WindowResult
	if len(answers) == 1 {
		res = answers[0].Result()
		res.Explain = parts[0].Explain
	} else {
		var err error
		if res, err = indep.MergeWindowAnswers(answers, q.Limit, disjoint); err != nil {
			return nil, &ShardError{Shard: strings.Join(shards, ","), Status: http.StatusOK, Err: fmt.Errorf("bad window answer: %w", err)}
		}
		if q.Explain {
			res.Explain = mergeExplain(parts)
		}
	}
	if q.BinaryResult {
		return res, nil
	}
	rows, err := indep.DecodeWindowBinary(res.Bin)
	if err != nil {
		return nil, err
	}
	rows.Explain = res.Explain
	return rows, nil
}

// mergeExplain is evalOnOwners' Explain rule.
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
// assembled from the consulted relations. Each relation R is fetched as
// the window σ_{sel_R}[attrs(R)], where sel_R is its fetch's selection
// (WindowFetch.Where: the share of Where that every tuple of R the
// evaluation reads satisfies, possibly empty), from the owners
// windowOwners picks: one when sel_R binds R's partition key, every owner
// otherwise. All fetches go out in one fanOut.
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
// The scratch evaluation hits the plan WindowFetches just compiled, so the
// answer reports cached, that compile's hit, as a node's first window
// reports a miss.
func (r *Router) gather(ctx context.Context, q indep.WindowQuery, fetches []indep.WindowFetch, cached bool) (*indep.WindowResult, error) {
	r.gathers.Inc()
	type fetch struct {
		rel, shard string
		sel        indep.WindowQuery
	}
	var calls []fetch
	for _, f := range fetches {
		attrs, err := r.sch.RelationAttrs(f.Relation)
		if err != nil {
			return nil, err
		}
		sel := indep.WindowQuery{Attrs: attrs, Where: f.Where}
		shards, _, err := r.windowOwners(f.Relation, sel, nil)
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
	if err := firstError(r.fanOut(ctx, shards, func(i int) (err error) {
		frags[i], err = r.tr[calls[i].shard].Window(ctx, calls[i].sel)
		return err
	})); err != nil {
		return nil, err
	}
	scratch := r.sch.NewDatabase()
	for i, frag := range frags {
		for _, row := range frag.Rows {
			if err := scratch.Insert(calls[i].rel, row); err != nil {
				return nil, fmt.Errorf("cluster: assembling %s window from %s: %w",
					calls[i].rel, calls[i].shard, err)
			}
		}
	}
	res, err := scratch.Query(q)
	if err != nil {
		return nil, err
	}
	res.SetPlanCached(cached)
	return res, nil
}

// fanOut runs call(i) against shards[i] for every i, concurrently and each
// under withRetry, and returns each call's final error in shard order. It is
// the router's one concurrent shard-call routine: batch forwards, window
// fetches and health pings all go through it.
func (r *Router) fanOut(ctx context.Context, shards []string, call func(i int) error) []error {
	errs := make([]error, len(shards))
	one := func(i int) { errs[i] = r.withRetry(ctx, shards[i], func() error { return call(i) }) }
	var wg sync.WaitGroup
	for i := 1; i < len(shards); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			one(i)
		}()
	}
	if len(shards) > 0 {
		one(0) // on the calling goroutine
	}
	wg.Wait()
	return errs
}

// firstError returns the first non-nil error in errs.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckHealth pings every shard once through fanOut, updating and returning
// the health table. Pings use the same retry/backoff as forwards.
func (r *Router) CheckHealth(ctx context.Context) []ShardStatus {
	names := make([]string, len(r.members))
	for i, m := range r.members {
		names[i] = m.Name
	}
	r.fanOut(ctx, names, func(i int) error { return r.tr[names[i]].Ping(ctx) })
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
