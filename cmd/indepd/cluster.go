package main

// The -cluster routing tier: indepd without a store of its own, splitting
// writes across shard daemons by the placement rule (see internal/cluster)
// and answering windows on the owning shards or over fragments gathered
// from them. It is a plain stateless HTTP
// tier: run several routers over the same -shards list for availability;
// they compute identical placements.

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"indep"
	"indep/internal/cluster"
)

// routerServer is the cluster-mode handler: the same surface shape as the
// single-node server (insert/batch/batchbin/tuple/window plus probes and
// metrics), backed by a cluster.Router instead of a store, with the
// /cluster/status and /cluster/health routes the routing tier adds.
type routerServer struct {
	log  *slog.Logger
	reg  *indep.MetricsRegistry
	http *httpStats
	mux  *http.ServeMux
	rt   *cluster.Router
}

func newRouterServer(rt *cluster.Router, logger *slog.Logger) *routerServer {
	reg := indep.NewMetricsRegistry()
	s := &routerServer{
		log:  logger,
		reg:  reg,
		http: newHTTPStats(reg),
		mux:  http.NewServeMux(),
		rt:   rt,
	}
	rt.RegisterMetrics(reg)
	handle := func(pattern string, h http.HandlerFunc) {
		method, path, _ := cutPattern(pattern)
		wrapped := s.wrap(pattern, h)
		s.mux.HandleFunc(pattern, wrapped)
		s.mux.HandleFunc(method+" /v1"+path, wrapped)
	}
	handle("POST /insert", s.handleInsert)
	handle("POST /batch", s.handleBatch)
	handle("POST /batchbin", s.handleBatchBin)
	handle("DELETE /tuple", s.handleDelete)
	handle("GET /window", s.handleWindow)
	handle("GET /cluster/status", s.handleStatus)
	handle("GET /cluster/health", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WriteTo(w)
	})
	ok := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	}
	s.mux.HandleFunc("GET /healthz", ok)
	s.mux.HandleFunc("GET /readyz", ok) // a router has no recovery phase
	return s
}

func cutPattern(pattern string) (method, path string, ok bool) {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == ' ' {
			return pattern[:i], pattern[i+1:], true
		}
	}
	panic("indepd: route pattern without method: " + pattern)
}

func (s *routerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// wrap is the router's request middleware: trace header echo, access log,
// and the indep_http_* metrics — the same families the shard daemons
// expose, so one dashboard covers both tiers.
func (s *routerServer) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.http.routeHist(route)
	return func(w http.ResponseWriter, r *http.Request) {
		trace := requestTraceID(r)
		w.Header().Set(traceHeader, trace)
		sw := &statusWriter{ResponseWriter: w}
		s.http.inflight.Add(1)
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		s.http.inflight.Add(-1)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.http.note(route, r.Method, sw.status, d, hist)
		s.log.Debug("request", "route", route, "status", sw.status,
			"bytes", sw.bytes, "d", d, "trace", trace)
	}
}

// writeRouteErr maps router errors: an unreachable or failing shard is 503
// with Retry-After (the cluster heals by the shard coming back, not by the
// client giving up), a rejection is 409, anything else 400.
func (s *routerServer) writeRouteErr(w http.ResponseWriter, err error, extra map[string]any) {
	var se *cluster.ShardError
	if errors.As(err, &se) && !indep.Rejected(err) {
		w.Header().Set("Retry-After", "1")
		body := map[string]any{"error": err.Error(), "shard": se.Shard}
		for k, v := range extra {
			body[k] = v
		}
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeErr(w, err)
}

func (s *routerServer) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req tupleReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.rt.Insert(r.Context(), req.Relation, req.Row); err != nil {
		s.writeRouteErr(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *routerServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req tupleReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.rt.Delete(r.Context(), req.Relation, req.Row); err != nil {
		s.writeRouteErr(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleBatch accepts the JSON batch shape and routes it per owner. The
// response is the reassembled per-op report; unlike a single node's atomic
// /batch, rejections are per-op and do not void the rest of the batch.
func (s *routerServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchReq
	if !decode(w, r, &req) {
		return
	}
	enc := indep.NewBinBatchEncoder(s.rt.Schema())
	for _, op := range req.Ops {
		if err := enc.Add(op.Relation, op.Row); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
	}
	s.routeBatch(w, r, enc.Bytes())
}

// handleBatchBin accepts the binary batch payload and routes it per owner.
func (s *routerServer) handleBatchBin(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	payload, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad body: " + err.Error()})
		return
	}
	s.routeBatch(w, r, payload)
}

func (s *routerServer) routeBatch(w http.ResponseWriter, r *http.Request, payload []byte) {
	rep, err := s.rt.Batch(r.Context(), payload)
	if err != nil {
		if rep == nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
			return
		}
		// Some shards failed after others applied their sub-batches: report
		// what happened and let the client retry the payload — re-applies
		// are no-ops (see cluster.Options.Retries for the one exception),
		// so the retry converges.
		s.writeRouteErr(w, err, map[string]any{"report": rep})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *routerServer) handleWindow(w http.ResponseWriter, r *http.Request) {
	q, err := parseWindowQuery(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	start := time.Now()
	res, err := s.rt.Window(r.Context(), q)
	if err != nil {
		s.writeRouteErr(w, err, nil)
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

func (s *routerServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.rt.Status())
}

// handleHealth actively probes every shard (GET /cluster/status reports
// passively observed health; this one spends round-trips).
func (s *routerServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"shards": s.rt.CheckHealth(r.Context())})
}

// serveCluster runs the routing tier to completion: listener, background
// health loop, signal-driven graceful shutdown. There is no store to drain
// or checkpoint — the router's only state is the health table.
func serveCluster(s *routerServer, addr string, healthEvery time.Duration, logger *slog.Logger) {
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	logger.Info("listening", "addr", ln.Addr().String())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s.rt.CheckHealth(ctx) // prime the health table before the first scrape
	if healthEvery > 0 {
		go s.healthLoop(ctx, healthEvery)
	}
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
}

// healthLoop pings all shards on a fixed cadence so /cluster/status stays
// fresh even on an idle router; canceled by daemon shutdown.
func (s *routerServer) healthLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, h := range s.rt.CheckHealth(ctx) {
				if !h.Healthy {
					s.log.Warn("shard unhealthy", "shard", h.Name, "error", h.LastError,
						"failures", strconv.FormatUint(h.Failures, 10))
				}
			}
		}
	}
}
