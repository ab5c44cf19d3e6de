package main

import (
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"indep/internal/obs"
)

// httpStats owns the daemon's HTTP-level metric families. Routes are static
// so their latency histograms register up front; request counters carry a
// status label whose values arrive at runtime, so series are created lazily
// behind a mutex (registration is cheap and happens at most once per
// route/method/status triple).
type httpStats struct {
	reg *obs.Registry

	mu       sync.Mutex
	requests map[string]*obs.Counter   // route|method|status
	inflight *obs.Gauge                // requests currently being served
	lat      map[string]*obs.Histogram // route
}

func newHTTPStats(reg *obs.Registry) *httpStats {
	return &httpStats{
		reg:      reg,
		requests: make(map[string]*obs.Counter),
		inflight: reg.Gauge("indep_http_inflight_requests", "requests currently being served"),
		lat:      make(map[string]*obs.Histogram),
	}
}

// routeHist returns the latency histogram for a route, registering it on
// first use (setup time, single goroutine).
func (h *httpStats) routeHist(route string) *obs.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist, ok := h.lat[route]
	if !ok {
		hist = h.reg.Histogram("indep_http_request_duration_seconds",
			"wall time per served request", 1e-9, obs.L("route", route))
		h.lat[route] = hist
	}
	return hist
}

// note records one finished request.
func (h *httpStats) note(route, method string, status int, d time.Duration, hist *obs.Histogram) {
	hist.Observe(int64(d))
	key := route + "|" + method + "|" + statusText(status)
	h.mu.Lock()
	c, ok := h.requests[key]
	if !ok {
		c = h.reg.Counter("indep_http_requests_total", "requests served",
			obs.L("route", route), obs.L("method", method), obs.L("status", statusText(status)))
		h.requests[key] = c
	}
	h.mu.Unlock()
	c.Inc()
}

// statusText renders a status code as a label value without fmt.
func statusText(code int) string {
	if code < 0 || code > 999 {
		return "0"
	}
	buf := [3]byte{'0', '0', '0'}
	for i := 2; i >= 0 && code > 0; i-- {
		buf[i] = byte('0' + code%10)
		code /= 10
	}
	return string(buf[:])
}

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// traceHeader is the request/response header carrying the trace ID. A
// well-formed client-supplied ID (16 hex characters; uppercase accepted and
// normalized) is honored, so a gateway — or a cluster router — can stitch
// its own logs and traces to the daemon's; anything else is replaced by a
// minted ID — trace IDs label metrics, logs, and the flight recorder, so
// hostile or sloppy clients must not be able to inject unbounded junk. The
// response always echoes the ID actually used.
const traceHeader = obs.TraceHeader

// requestTraceID resolves the trace ID for one request.
func requestTraceID(r *http.Request) string {
	trace := r.Header.Get(traceHeader)
	if trace != "" {
		trace = strings.ToLower(trace)
		if obs.ValidTraceID(trace) {
			return trace
		}
	}
	return obs.NewTraceID()
}

// wrapAt is the daemon's one middleware — trace header, access log, the
// indep_http_* metrics — on both tiers, so one dashboard covers node and
// router. It is applied per route so the log and the metric labels carry
// the registered pattern rather than the raw URL (which may embed user
// data). Probe and scrape routes log at Debug so periodic health checks
// don't fill the log.
//
// Info-level (API) routes additionally run under the flight recorder: the
// middleware opens the request's root span, handlers grow the span tree
// through the store and engine, and on completion the recorder decides —
// tail-based — whether the trace is worth keeping. Debug-level routes
// (probes, scrapes, the /debug/trace endpoints themselves) are never
// traced, so a kubelet can't flood the sampler.
func (s *server) wrapAt(level slog.Level, route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.http.routeHist(route)
	traced := level >= slog.LevelInfo
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := requestTraceID(r)
		w.Header().Set(traceHeader, trace)
		ctx := obs.WithTrace(r.Context(), trace)
		var tr *obs.RequestTrace
		if traced {
			var root *obs.Span
			tr, root = s.rec.Start(trace, route)
			if root.Recording() {
				root.SetAttr("method", r.Method)
				ctx = obs.ContextWithSpan(ctx, root)
			}
		}
		sw := &statusWriter{ResponseWriter: w}
		s.http.inflight.Add(1)
		h(sw, r.WithContext(ctx))
		s.http.inflight.Add(-1)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(start)
		if tr != nil {
			root := tr.Root()
			root.SetInt("status", int64(sw.status))
			root.SetInt("resp_bytes", sw.bytes)
			s.rec.Finish(tr, sw.status)
		}
		s.http.note(route, r.Method, sw.status, d, hist)
		s.log.Log(r.Context(), level, "request",
			"trace", trace,
			"method", r.Method,
			"route", route,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration", d)
	}
}
