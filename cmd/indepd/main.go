// Command indepd serves a maintained database over HTTP/JSON. It loads a
// schema, runs the Graham–Yannakakis independence analysis, and opens a
// ConcurrentStore: independent schemas validate inserts concurrently behind
// per-relation lock stripes, everything else serializes through the chase —
// either way every write is validated, so the served state always has a
// weak instance.
//
// With -data the store is durable: every acknowledged write is appended to
// a write-ahead log (group commit, one fsync per commit group), restarts
// recover the exact pre-crash state, and checkpoints bound replay time. A
// graceful shutdown (SIGINT/SIGTERM) drains connections, writes a final
// checkpoint, and closes the log.
//
// With -follow the daemon is a read-only replica: it keeps its own durable
// copy in -data, tails the primary's write-ahead log over /v1/repl/, and
// serves window queries from its local snapshots. Writes answer 403; reads
// carrying X-Indep-Min-Version (the position token every durable write
// returns in X-Indep-Version) wait briefly for the stream to catch up and
// answer 503 with Retry-After when still behind — read-your-writes without
// blocking the primary.
//
// With -cluster the daemon is a stateless routing tier in front of the
// -shards daemons (see internal/cluster). It is the same server: one route
// table, one middleware, one listen/shutdown path. The API routes call a
// cluster.Router instead of a store, so batches split per owning shard and
// apply per op, and a failing shard answers 503 with Retry-After.
//
// Usage:
//
//	indepd -schema 'CT(C,T); CS(C,S); CHR(C,H,R)' -fds 'C -> T; C H -> R'
//	indepd -file design.txt -addr :8080 -data /var/lib/indepd
//	indepd -file design.txt -addr :8081 -data /var/lib/indepd-replica -follow http://primary:8080
//	indepd -file design.txt -addr :8090 -cluster -shards 'shard1=http://h1:8080,shard2=http://h2:8080'
//
// API routes (also mounted under /v1/), served by node and router alike:
//
//	POST   /insert      {"relation":"CT","row":{"C":"cs101","T":"jones"}}
//	POST   /batch       {"ops":[{"relation":...,"row":{...}}, ...]}  (atomic on a node)
//	POST   /batchbin    length-prefixed binary batch (indep.BinBatchEncoder; atomic on a node, JSON-free)
//	DELETE /tuple       {"relation":"CT","row":{...}}
//	GET    /window      ?attrs=C,T[&where=C=cs101&project=T&limit=10]
//	                    (Accept: application/x-indep-bin streams the binary result from a node)
//
// Every write is a binary payload: /batch, /insert and /tuple transcode
// their JSON ops into the /batchbin payload, and /insert and /tuple apply
// theirs as a one-op ?partial=1 payload on node and router alike.
//
// Node only:
//
//	POST   /checkpoint  snapshot state, truncate the log (durable only)
//	GET    /state       full state as JSON rows
//	GET    /analysis    independence analysis
//	GET    /stats       per-relation counters, latency quantiles, WAL depth
//	GET    /cluster/rel one relation's fragment, for a whole-state diff (no router reads it)
//	GET    /v1/repl/wal       raw flushed WAL bytes by cursor (?pos=seq/off&max=&wait=1)
//	GET    /v1/repl/snapshot  encoded state snapshot for follower bootstrap
//
// Router only:
//
//	GET    /cluster/status  placement and passively observed shard health
//	GET    /cluster/health  actively probes every shard
//
// Both tiers, bare path only:
//
//	GET    /metrics     Prometheus text exposition of every subsystem
//	GET    /healthz     process liveness (200 as soon as the listener is up)
//	GET    /readyz      503 until recovery finishes, then 200 (a router is ready at once)
//	GET    /debug/trace/{id}, /debug/trace/recent  the flight recorder
//
// /window computes the paper's window function: the X-total projection of
// the representative instance for the requested attribute set, evaluated
// lock-free over a consistent snapshot (relation-by-relation when the
// schema is independent, by the serialized chase otherwise).
//
// The listener comes up before recovery starts, so orchestrators can probe
// /healthz and /readyz while a large log replays; store-backed routes
// answer 503 until then. Every request gets a trace ID (minted, or taken
// from the X-Indep-Trace request header), echoed in the response header
// and attached to the access log, slow-operation records, and — on a
// durable store — the commit's fsync ack, so one grep over the structured
// log reconstructs a write's full path. A router forwards the ID to the
// shards, whose flight recorders keep the forwards under it. -pprof mounts
// net/http/pprof under /debug/pprof/.
//
// Rejected writes answer 409 with {"rejected":true}; malformed ones 400.
// If the write-ahead log cannot persist an admitted write the daemon
// answers 503 and should be restarted.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"indep"
	"indep/internal/cluster"
	"indep/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	schemaSrc := flag.String("schema", "", "schema declaration, e.g. 'R1(A,B); R2(B,C)'")
	fdSrc := flag.String("fds", "", "functional dependencies, e.g. 'A -> B; B -> C'")
	file := flag.String("file", "", "read schema/fds from a declaration file")
	data := flag.String("data", "", "data directory for the write-ahead log (empty: in-memory only)")
	follow := flag.String("follow", "", "primary base URL to replicate from (replica mode; requires -data, serves reads only)")
	clusterOn := flag.Bool("cluster", false, "routing-tier mode: no local store, split writes across -shards and scatter-gather windows")
	shards := flag.String("shards", "", "static shard membership for -cluster, e.g. 'shard1=http://10.0.0.1:8080,shard2=http://10.0.0.2:8080'")
	clusterParts := flag.Int("cluster-parts", 0, "hash ranges per partitionable relation (0: twice the shard count)")
	healthEvery := flag.Duration("cluster-health-interval", 5*time.Second, "shard health-check cadence in -cluster mode")
	noFsync := flag.Bool("nofsync", false, "durable mode without fsync (survives process crashes, not power loss)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("loglevel", "info", "log level: debug, info, warn, or error")
	slow := flag.Duration("slow", 100*time.Millisecond, "log operations and commits at or above this duration (0 disables)")
	traceRing := flag.Int("trace-ring", obs.DefaultRingCapacity, "flight-recorder capacity in traces (rounded up to a power of two)")
	traceSample := flag.Int("trace-sample", obs.DefaultSampleEvery, "retain 1 in N unremarkable traces (slow, errored, and rejected requests are always kept; 1 keeps everything)")
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -loglevel %q: want debug, info, warn, or error", *logLevel))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	var sch *indep.Schema
	var err error
	switch {
	case *file != "":
		sch, err = indep.ParseFile(*file)
	case *schemaSrc != "":
		sch, err = indep.Parse(*schemaSrc, *fdSrc)
	default:
		err = fmt.Errorf("missing -schema (or -file)")
	}
	if err != nil {
		fatal(err)
	}
	logger.Info("schema loaded", "schema", sch.String())

	rec := obs.RecorderOptions{Capacity: *traceRing, SampleEvery: *traceSample, Slow: *slow}
	var s *server
	var rt *cluster.Router
	if *clusterOn {
		if *shards == "" {
			fatal(fmt.Errorf("-cluster requires -shards (e.g. -shards 'shard1=http://host1:8080,shard2=http://host2:8080')"))
		}
		if *data != "" || *follow != "" {
			fatal(fmt.Errorf("-cluster is a stateless routing tier; it takes neither -data nor -follow"))
		}
		members, err := cluster.ParseMembers(*shards)
		if err != nil {
			fatal(err)
		}
		if rt, err = cluster.NewRouter(sch, members, cluster.Options{Parts: *clusterParts, Logger: logger}); err != nil {
			fatal(err)
		}
		if shard, fb := rt.Fallback(); fb {
			logger.Warn("cluster mode running in single-node fallback", "shard", shard)
		} else {
			logger.Info("cluster mode", "shards", len(members), "parts", rt.Placement().Parts())
		}
		s = newClusterServer(rt, logger, *pprofOn, rec)
	} else {
		s = newServer(sch, logger, *pprofOn, rec)
	}

	// Listener first, store second: /healthz and /readyz must answer while
	// a large write-ahead log replays, and an orchestrator must be able to
	// tell "starting" from "dead". Store-backed routes answer 503 until the
	// store is installed; a router is installed already.
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	logger.Info("listening", "addr", ln.Addr().String())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var store *indep.ConcurrentStore
	var durable *indep.DurableStore
	var follower *indep.Follower
	switch {
	case rt != nil:
		// A router has no store: newClusterServer installed the router.
	case *follow != "":
		if *data == "" {
			fatal(fmt.Errorf("-follow requires -data (the replica keeps its own durable copy)"))
		}
		follower, err = sch.OpenFollower(*data, &indep.HTTPReplSource{
			Base: strings.TrimRight(*follow, "/"),
			Wait: true,
		}, indep.FollowerOptions{
			NoFsync: *noFsync,
			Logger:  logger,
		})
		if err != nil {
			fatal(err)
		}
		durable = follower.DurableStore
		store = durable.ConcurrentStore
	case *data != "":
		durable, err = sch.OpenDurableStore(*data, indep.DurableOptions{
			NoFsync:    *noFsync,
			Logger:     logger,
			SlowCommit: *slow,
		})
		if err != nil {
			fatal(err)
		}
		store = durable.ConcurrentStore
	default:
		store, err = sch.OpenConcurrentStore()
		if err != nil {
			fatal(err)
		}
	}
	if store != nil {
		s.install(store, durable, follower, *slow)
		logger.Info("ready", "fastPath", store.FastPath(), "durable", durable != nil,
			"replica", follower != nil)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if rt != nil {
		rt.CheckHealth(ctx) // prime the health table before the first scrape
		if *healthEvery > 0 {
			go healthLoop(ctx, rt, *healthEvery, logger)
		}
	}
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// Restore default signal behavior immediately: a second SIGINT/SIGTERM
	// during a slow drain or a hung final checkpoint must still kill us.
	stop()
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	switch {
	case follower != nil:
		// Close persists the stream position, so the next start resumes
		// the tail instead of re-syncing from a snapshot.
		if err := follower.Close(); err != nil {
			logger.Error("close", "err", err)
		}
	case durable != nil:
		if err := durable.Checkpoint(); err != nil {
			logger.Error("final checkpoint", "err", err)
		} else {
			logger.Info("final checkpoint written")
		}
		if err := durable.Close(); err != nil {
			logger.Error("close", "err", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "indepd:", err)
	os.Exit(2)
}

// backend is what the API routes call: a *indep.ConcurrentStore on a node,
// routerBackend over a cluster.Router in -cluster mode.
type backend interface {
	ApplyBinBatchPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error)
	QueryCtx(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error)
}

// atomicApplier is the capability behind an atomic /batchbin: a store
// commits a payload as one unit. A router's payload spans shards, so it
// lacks the method and applies every batch per op.
type atomicApplier interface {
	ApplyBinBatch(ctx context.Context, payload []byte) (int, error)
}

// server is the daemon's one HTTP server, for both tiers: the schema, the
// backend, and telemetry behind the route table. api is nil until install
// runs on a node (a router's is set at construction); store and durable
// are the node's store (durable stays nil for an in-memory daemon, both
// stay nil on a router). ready gates every backend route, and its Store
// also publishes the pointers to handler goroutines.
type server struct {
	*http.ServeMux // the route table
	sch            *indep.Schema
	log            *slog.Logger
	reg            *indep.MetricsRegistry
	http           *httpStats

	ready    atomic.Bool
	api      backend
	store    *indep.ConcurrentStore
	durable  *indep.DurableStore
	follower *indep.Follower // non-nil in replica mode: read-only, tails a primary

	// rec is the always-on flight recorder; API requests run under its
	// root spans and /debug/trace serves what it retained.
	rec *obs.Recorder
}

// newServer builds a node's handler; split from main so tests can mount it
// on httptest. The handler works before install: probe and metrics routes
// answer immediately, store routes 503.
func newServer(sch *indep.Schema, logger *slog.Logger, pprofOn bool, rec obs.RecorderOptions) *server {
	s := newAPIServer(sch, logger, pprofOn, rec)
	s.handle("POST /checkpoint", s.handleCheckpoint)
	s.handle("GET /cluster/rel", s.handleClusterRel)
	s.handle("GET /state", s.handleState)
	s.handle("GET /analysis", s.handleAnalysis)
	s.handle("GET /stats", s.handleStats)
	// Replication stream: followers poll these at up to per-millisecond
	// rates, so they log at Debug like the probe routes.
	s.HandleFunc("GET /v1/repl/wal", s.wrapAt(slog.LevelDebug, "GET /v1/repl/wal", s.whenReady(s.handleReplWal)))
	s.HandleFunc("GET /v1/repl/snapshot", s.wrapAt(slog.LevelDebug, "GET /v1/repl/snapshot", s.whenReady(s.handleReplSnapshot)))
	return s
}

// newAPIServer builds the routes both tiers serve: the API, probes,
// metrics, the flight recorder and, with pprofOn, net/http/pprof.
func newAPIServer(sch *indep.Schema, logger *slog.Logger, pprofOn bool, rec obs.RecorderOptions) *server {
	reg := indep.NewMetricsRegistry()
	s := &server{
		ServeMux: http.NewServeMux(),
		sch:      sch,
		log:      logger,
		reg:      reg,
		http:     newHTTPStats(reg),
		rec:      obs.NewRecorder(rec),
	}
	s.rec.Register(reg)
	s.handle("POST /insert", s.handleOne)
	s.handle("POST /batch", s.handleBatch)
	s.handle("POST /batchbin", s.handleBatchBin)
	s.handle("DELETE /tuple", s.handleOne)
	s.handle("GET /window", s.handleWindow)
	// Probe and scrape routes bypass the readiness gate and log at Debug:
	// a kubelet hitting /healthz every few seconds must not fill the log.
	s.HandleFunc("GET /metrics", s.wrapAt(slog.LevelDebug, "GET /metrics", s.handleMetrics))
	// Flight-recorder reads are Debug-level and untraced: reading traces
	// must not evict traces. The literal /recent route wins over the {id}
	// wildcard by ServeMux precedence.
	s.HandleFunc("GET /debug/trace/recent", s.wrapAt(slog.LevelDebug, "GET /debug/trace/recent", s.handleTraceRecent))
	s.HandleFunc("GET /debug/trace/{id}", s.wrapAt(slog.LevelDebug, "GET /debug/trace/{id}", s.handleTraceGet))
	s.HandleFunc("GET /healthz", s.wrapAt(slog.LevelDebug, "GET /healthz", s.handleHealthz))
	s.HandleFunc("GET /readyz", s.wrapAt(slog.LevelDebug, "GET /readyz", s.handleReadyz))
	if pprofOn {
		s.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// handle mounts an API route bare and under /v1/ (so clients can pin the
// versioned path), behind the readiness gate, under the Info-level traced
// middleware.
func (s *server) handle(pattern string, h http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("indepd: route pattern without method: " + pattern)
	}
	wrapped := s.wrapAt(slog.LevelInfo, pattern, s.whenReady(h))
	s.HandleFunc(pattern, wrapped)
	s.HandleFunc(method+" /v1"+path, wrapped)
}

// install wires the opened store into the server: telemetry (slow-operation
// log with trace IDs), metric registration, and the readiness flip. Runs
// once, after recovery, before any store-backed route answers. In replica
// mode follower wraps the same durable store and adds the stream metrics.
func (s *server) install(store *indep.ConcurrentStore, durable *indep.DurableStore, follower *indep.Follower, slow time.Duration) {
	store.SetTelemetry(s.log, slow)
	s.api, s.store, s.durable, s.follower = store, store, durable, follower
	switch {
	case follower != nil:
		follower.RegisterMetrics(s.reg)
	case durable != nil:
		durable.RegisterMetrics(s.reg)
	default:
		store.RegisterMetrics(s.reg)
	}
	s.ready.Store(true)
}

// whenReady answers 503 until install has run, and 403 on a replica to
// every write (an API route that is not a GET). The atomic.Bool is also the
// publication barrier for the backend and store pointers: install writes
// them before the Store(true), handlers read them only after Load()
// observes true.
func (s *server) whenReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch {
		case !s.ready.Load():
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"error": "store is recovering; try again shortly"})
		case s.follower != nil && r.Method != http.MethodGet:
			writeJSON(w, http.StatusForbidden, map[string]any{
				"error": "replica is read-only; send writes to the primary"})
		default:
			h(w, r)
		}
	}
}

// tupleReq is the body of /insert and /tuple.
type tupleReq struct {
	Relation string            `json:"relation"`
	Row      map[string]string `json:"row"`
}

// batchReq is the body of /batch.
type batchReq struct {
	Ops []tupleReq `json:"ops"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps an error to 409 for constraint rejections, 503 when the
// write-ahead log could not persist an admitted write (the store needs
// operator attention) or a cluster shard failed, 500 when the chase ran out
// of budget (a server-side limit, not the client's fault), and 400 for
// malformed requests. A shard failure carries Retry-After — the cluster
// heals by the shard coming back, not by the client giving up — the
// shard's name, and rep, the partial report of a batch it cut short.
func writeErr(w http.ResponseWriter, err error, rep *indep.BatchReport) {
	code := http.StatusBadRequest
	body := map[string]any{"error": err.Error(), "rejected": indep.Rejected(err)}
	var se *cluster.ShardError
	switch {
	case indep.Rejected(err):
		code = http.StatusConflict
	case errors.As(err, &se):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
		body["shard"] = se.Shard
		if rep != nil {
			body["report"] = rep
		}
	case indep.DurabilityFailed(err):
		code = http.StatusServiceUnavailable
	case indep.Overloaded(err):
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, body)
}

// maxBodyBytes bounds request bodies; a /batch of tens of thousands of rows
// fits comfortably, a streamed multi-GB body does not.
const maxBodyBytes = 16 << 20

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad JSON: " + err.Error()})
		return false
	}
	return true
}

// handleOne serves POST /insert and DELETE /tuple as a transcoder like
// handleBatch: the JSON op becomes a one-op binary payload, applied through
// ApplyBinBatchPartial on either tier, and its report is answered in the
// single-op shape — a rejection as 409 with the op's error, otherwise
// {"status":"ok"} for an insert and {"deleted":b} for a delete.
func (s *server) handleOne(w http.ResponseWriter, r *http.Request) {
	del := r.Method == http.MethodDelete
	var req tupleReq
	if !decode(w, r, &req) {
		return
	}
	payload, ok := s.transcode(w, []tupleReq{req}, del)
	if !ok {
		return
	}
	rep, err := s.api.ApplyBinBatchPartial(r.Context(), payload)
	switch {
	case err != nil:
		writeErr(w, err, nil)
	case len(rep.Rejected) > 0:
		writeJSON(w, http.StatusConflict, map[string]any{"error": rep.Rejected[0].Error, "rejected": true})
	case del:
		s.noteVersion(w)
		writeJSON(w, http.StatusOK, map[string]any{"deleted": rep.Changed > 0})
	default:
		s.noteVersion(w)
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	}
}

// handleBatch is a thin transcoder: the JSON ops become the binary payload
// /batchbin takes, applied the same way.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchReq
	if !decode(w, r, &req) {
		return
	}
	if payload, ok := s.transcode(w, req.Ops, false); ok {
		s.applyBatch(w, r, payload, false)
	}
}

// transcode encodes JSON ops as the binary payload /batchbin takes, as
// deletes when del is set, answering 400 for an op the schema refuses.
func (s *server) transcode(w http.ResponseWriter, ops []tupleReq, del bool) ([]byte, bool) {
	enc := indep.NewBinBatchEncoder(s.sch)
	add := enc.Add
	if del {
		add = enc.Delete
	}
	for _, op := range ops {
		if err := add(op.Relation, op.Row); err != nil {
			writeErr(w, err, nil)
			return nil, false
		}
	}
	return enc.Bytes(), true
}

// handleBatchBin ingests a length-prefixed binary batch (the payload a
// indep.BinBatchEncoder builds): WAL record frames, decoded and applied
// without touching encoding/json anywhere on the path. ?partial=1 — the
// mode a cluster router forwards sub-batches in — asks for per-op
// outcomes (indep.ConcurrentStore.ApplyBinBatchPartial).
func (s *server) handleBatchBin(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query().Get("partial")
	partial, err := strconv.ParseBool(cmp.Or(p, "false"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad partial parameter " + strconv.Quote(p)})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	// The buffer is sized once from Content-Length, capped so that a header
	// overstating the body cannot reserve maxBodyBytes; a body past the cap
	// grows it as it arrives. MinRead spare room lets ReadFrom see EOF
	// without growing.
	body := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), maxBodyPresize)+bytes.MinRead))
	if _, err := body.ReadFrom(r.Body); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad body: " + err.Error()})
		return
	}
	s.applyBatch(w, r, body.Bytes(), partial)
}

// maxBodyPresize caps the buffer a binary batch's Content-Length reserves.
const maxBodyPresize = 1 << 20

// applyBatch applies a binary payload. A backend that can commits it
// atomically unless partial is set, and the response is written literally:
// {"status":"ok","accepted":n}. Otherwise operations apply in frame order as
// one commit, each rejected insert reported and skipped, and the response
// is the per-op indep.BatchReport: rejections
// ride inside a 200 instead of aborting the batch, because a batch split
// across shards cannot be atomic anyway. A router whose shard failed after
// others applied their sub-batches answers 503 with the partial report;
// the client redelivers the payload, and re-applies are no-ops (see
// cluster.Options.Retries for the one exception), so the retry converges.
func (s *server) applyBatch(w http.ResponseWriter, r *http.Request, payload []byte, partial bool) {
	if a, ok := s.api.(atomicApplier); ok && !partial {
		n, err := a.ApplyBinBatch(r.Context(), payload)
		if err != nil {
			writeErr(w, err, nil)
			return
		}
		s.noteVersion(w)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, `{"status":"ok","accepted":%d}`+"\n", n)
		return
	}
	rep, err := s.api.ApplyBinBatchPartial(r.Context(), payload)
	if err != nil {
		writeErr(w, err, rep)
		return
	}
	s.noteVersion(w)
	writeJSON(w, http.StatusOK, rep)
}

// handleClusterRel serves the shard's raw fragment of one relation as the
// binary window encoding, for a client diffing whole shard states; a
// cluster router reads its shards through /v1/window only. The fragment is
// a consistent snapshot of this shard.
func (s *server) handleClusterRel(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "missing name parameter (e.g. ?name=CT)"})
		return
	}
	data, err := s.store.RelationBinary(name)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", indep.BinContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// parseWindowQuery decodes the /window query parameters:
//
//	attrs=C,T        window attribute set X (required; ',' or space separated)
//	where=C=cs101    equality selection on a window attribute (repeatable)
//	project=T        project the result onto a subset of attrs
//	limit=10         cap the number of returned rows
//
// It validates only shape (presence, separators, integer limit); attribute
// and value resolution happens in the store, which reports unknown names.
func parseWindowQuery(vals url.Values) (indep.WindowQuery, error) {
	var q indep.WindowQuery
	split := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
	}
	q.Attrs = split(vals.Get("attrs"))
	if len(q.Attrs) == 0 {
		return q, fmt.Errorf("missing attrs parameter (e.g. ?attrs=C,T)")
	}
	q.Project = split(vals.Get("project"))
	for _, w := range vals["where"] {
		attr, val, ok := strings.Cut(w, "=")
		if !ok || attr == "" {
			return q, fmt.Errorf("bad where parameter %q (want attr=value)", w)
		}
		if q.Where == nil {
			q.Where = make(map[string]string)
		}
		if prev, dup := q.Where[attr]; dup && prev != val {
			return q, fmt.Errorf("conflicting where parameters for %s", attr)
		}
		q.Where[attr] = val
	}
	if l := vals.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad limit parameter %q", l)
		}
		q.Limit = n
	}
	if e := vals.Get("explain"); e != "" {
		b, err := strconv.ParseBool(e)
		if err != nil {
			return q, fmt.Errorf("bad explain parameter %q (want a boolean, e.g. explain=1)", e)
		}
		q.Explain = b
	}
	return q, nil
}

func (s *server) handleWindow(w http.ResponseWriter, r *http.Request) {
	if !s.waitMinVersion(w, r) {
		return
	}
	q, err := parseWindowQuery(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	// A client accepting the binary media type gets the binary result — no
	// rendered row maps, no JSON encode, counts carried in-band — from a
	// store and a router alike, unless it asked for the plan, which only
	// JSON carries.
	if !q.Explain && strings.Contains(r.Header.Get("Accept"), indep.BinContentType) {
		q.BinaryResult = true
	}
	start := time.Now()
	res, err := s.api.QueryCtx(r.Context(), q)
	if err != nil {
		writeErr(w, err, nil)
		return
	}
	if res.Bin != nil {
		w.Header().Set("Content-Type", indep.BinContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(res.Bin)
		return
	}
	rows := res.Rows
	if rows == nil {
		rows = []map[string]string{}
	}
	body := map[string]any{
		"attrs":      res.Attrs,
		"rows":       rows,
		"rowCount":   len(rows),
		"total":      res.Total,
		"fastPath":   res.FastPath,
		"planCached": res.PlanCached,
		"elapsedNs":  time.Since(start).Nanoseconds(),
	}
	if res.Explain != nil {
		body["explain"] = res.Explain
	}
	writeJSON(w, http.StatusOK, body)
}

// handleTraceGet serves one retained trace by ID. 404 means the ID was
// never retained (tail sampling dropped it) or has been evicted from the
// ring — not that the request never happened.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := strings.ToLower(r.PathValue("id"))
	if !indep.ValidTraceID(id) {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "bad trace id (want 16 hex characters)"})
		return
	}
	tv, ok := s.rec.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": "trace not retained (sampled out or evicted)"})
		return
	}
	writeJSON(w, http.StatusOK, tv)
}

// handleTraceRecent lists retained traces, newest first:
//
//	min_ms=50          only traces lasting at least 50ms
//	route=POST /insert only traces of that route
//	limit=20           cap the listing (default 50)
func (s *server) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	var minDur time.Duration
	if m := vals.Get("min_ms"); m != "" {
		ms, err := strconv.ParseFloat(m, 64)
		if err != nil || ms < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad min_ms parameter %q", m)})
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 50
	if l := vals.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad limit parameter %q", l)})
			return
		}
		limit = n
	}
	traces := s.rec.Recent(minDur, vals.Get("route"), limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(traces),
		"traces": traces,
	})
}

func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.durable == nil {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "store is not durable; start indepd with -data"})
		return
	}
	start := time.Now()
	if err := s.durable.Checkpoint(); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	st := s.durable.WAL()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"elapsedNs":  time.Since(start).Nanoseconds(),
		"walBytes":   st.TotalBytes,
		"walSegment": st.ActiveSeq,
	})
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	if !s.waitMinVersion(w, r) {
		return
	}
	snap := s.store.Snapshot()
	rels := make(map[string][]map[string]string, len(s.sch.Relations()))
	for _, name := range s.sch.Relations() {
		rows, err := snap.Tuples(name)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
			return
		}
		rels[name] = rows
	}
	writeJSON(w, http.StatusOK, map[string]any{"rows": snap.Rows(), "relations": rels})
}

func (s *server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	a := s.store.Analysis()
	writeJSON(w, http.StatusOK, map[string]any{
		"independent":    a.Independent,
		"reason":         a.Reason,
		"fastPath":       s.store.FastPath(),
		"relationCovers": a.RelationCovers,
		"summary":        a.Summary(),
	})
}

// quantNs renders a latency histogram snapshot as nanosecond quantiles.
func quantNs(h indep.HistSnapshot) map[string]any {
	p50, p90, p99, p999 := h.Quantiles()
	return map[string]any{
		"count": h.Count, "p50Ns": p50, "p90Ns": p90, "p99Ns": p99, "p999Ns": p999,
	}
}

// handleStats reports the same numbers /metrics exposes — both read the
// shared histograms and counters, so a JSON probe and a Prometheus scrape
// can never disagree.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := s.store.Stats()
	rels := make([]map[string]any, len(stats))
	for i, st := range stats {
		rels[i] = map[string]any{
			"relation": st.Relation,
			"tuples":   st.Tuples,
			"inserts":  st.Inserts,
			"rejects":  st.Rejects,
			"deletes":  st.Deletes,
			"p50Ns":    st.P50.Nanoseconds(),
			"p90Ns":    st.P90.Nanoseconds(),
			"p99Ns":    st.P99.Nanoseconds(),
			"p999Ns":   st.P999.Nanoseconds(),
		}
	}
	qs := s.store.QueryStats()
	out := map[string]any{
		"relations":   rels,
		"durable":     s.durable != nil,
		"replication": s.replStatsSection(),
		"query": map[string]any{
			"queries":        qs.Queries,
			"planHits":       qs.PlanHits,
			"fastEvals":      qs.FastEvals,
			"chaseEvals":     qs.ChaseEvals,
			"snapshotReuses": qs.SnapshotReuses,
			"snapshotCopies": qs.SnapshotCopies,
		},
	}
	if s.durable != nil {
		ws := s.durable.WAL()
		write, fsync, group := s.durable.WALLatency()
		out["wal"] = map[string]any{
			"segments":     ws.Segments,
			"oldestSeq":    ws.OldestSeq,
			"activeSeq":    ws.ActiveSeq,
			"activeBytes":  ws.ActiveBytes,
			"totalBytes":   ws.TotalBytes,
			"records":      ws.Records,
			"syncs":        ws.Syncs,
			"commitGroups": ws.CommitGroups,
			"write":        quantNs(write),
			"fsync":        quantNs(fsync),
			"recordsPerGroup": map[string]any{
				"count": group.Count,
				"mean":  group.Mean(),
				"p50":   group.Quantile(0.50),
				"p99":   group.Quantile(0.99),
			},
		}
		out["commitWait"] = quantNs(s.durable.CommitWaitStats())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves the registry in Prometheus text exposition format
// 0.0.4. Works before readiness: store families appear once install has
// registered them, HTTP families from the first request on.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteTo(w)
}

// handleHealthz is process liveness: 200 as soon as the listener accepts,
// even while recovery replays the log.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is readiness: 503 until the store is installed (recovery
// finished, telemetry wired), 200 afterwards.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}
