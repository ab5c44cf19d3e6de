package main

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"indep"
	"indep/internal/wal"
)

// This file is the daemon's replication surface. A durable daemon is a
// primary: it serves its flushed WAL and catch-up snapshots under
// /v1/repl/ (a follower's local log works too, so replicas chain). A
// daemon started with -follow is a replica: its store tails the primary,
// writes answer 403, and reads honor X-Indep-Min-Version — the position
// token X-Indep-Version returns on every durable write — by waiting
// briefly and then answering 503 with Retry-After when still behind.

// minVersionHeader is the request header carrying a read-your-writes
// position token; versionHeader echoes the store's current token on writes.
const (
	versionHeader    = "X-Indep-Version"
	minVersionHeader = "X-Indep-Min-Version"
)

// replWaitBudget bounds how long a follower read waits to reach a client's
// token, and how long /v1/repl/wal long-polls for fresh bytes, before
// telling the caller to come back.
const replWaitBudget = 500 * time.Millisecond

// noteVersion stamps the response with the store's durable position: the
// token a client sends back (X-Indep-Min-Version) to read its own writes
// from any replica. Must run before the status line is written.
func (s *server) noteVersion(w http.ResponseWriter) {
	if s.durable != nil {
		w.Header().Set(versionHeader, s.durable.ReplPosition().String())
	}
}

// waitMinVersion enforces a read-your-writes token on read routes. On a
// primary (or for an absent token) it passes immediately — the primary's
// state always covers every token it issued. On a replica it waits up to
// the budget for the stream to catch up, then answers 503 + Retry-After.
func (s *server) waitMinVersion(w http.ResponseWriter, r *http.Request) bool {
	tok := r.Header.Get(minVersionHeader)
	if tok == "" {
		return true
	}
	pos, err := wal.ParsePosition(tok)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "bad " + minVersionHeader + " header: " + err.Error()})
		return false
	}
	if s.follower == nil || s.follower.WaitFor(pos, replWaitBudget) {
		return true
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":     "replica has not reached the requested version",
		"requested": pos.String(),
		"applied":   s.follower.Applied().String(),
	})
	return false
}

// handleReplWal streams raw flushed WAL bytes to a follower:
//
//	pos=3/16   cursor position (required; "seq/off")
//	max=65536  response size cap in bytes
//	wait=1     long-poll until bytes are available (bounded)
//
// 200 carries the bytes (possibly none) with the cursor protocol in the
// X-Indep-Repl-* headers; 410 means the position was truncated away and the
// follower must re-sync from /v1/repl/snapshot.
func (s *server) handleReplWal(w http.ResponseWriter, r *http.Request) {
	if s.durable == nil {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "store is not durable; start indepd with -data"})
		return
	}
	q := r.URL.Query()
	pos, err := wal.ParsePosition(q.Get("pos"))
	if err != nil || pos.IsZero() {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "bad pos parameter (want seq/off, e.g. pos=1/16)"})
		return
	}
	max := 0
	if m := q.Get("max"); m != "" {
		if max, err = strconv.Atoi(m); err != nil || max < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad max parameter"})
			return
		}
	}
	wait := false
	if v := q.Get("wait"); v != "" && v != "0" {
		wait = true
	}

	deadline := time.Now().Add(replWaitBudget)
	for {
		chunk, err := s.durable.ReplRead(pos, max)
		switch {
		case errors.Is(err, wal.ErrSegmentGone):
			writeJSON(w, http.StatusGone, map[string]any{
				"error": "position truncated away; re-sync from /v1/repl/snapshot"})
			return
		case err != nil:
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
			return
		}
		// Serve immediately when there is data or a position advance
		// (sealed-segment hop); otherwise long-poll within the budget.
		if len(chunk.Data) > 0 || chunk.Next != pos || !wait || !time.Now().Before(deadline) {
			h := w.Header()
			h.Set(indep.ReplHeaderStart, chunk.Start.String())
			h.Set(indep.ReplHeaderNext, chunk.Next.String())
			h.Set(indep.ReplHeaderFlushed, chunk.Flushed.String())
			h.Set("Content-Type", "application/octet-stream")
			w.Write(chunk.Data)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// handleReplSnapshot serves an encoded checkpoint of the current state for
// follower bootstrap and re-sync, with the position to tail from in
// X-Indep-Repl-Tail. The snapshot is cut with a log rotation but written
// nowhere — it exists only in this response.
func (s *server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.durable == nil {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "store is not durable; start indepd with -data"})
		return
	}
	data, tail, err := s.durable.ReplSnapshot()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	h := w.Header()
	h.Set(indep.ReplHeaderTail, tail.String())
	h.Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// replStatsSection is the "replication" object /stats reports: role plus,
// on a replica, the full stream statistics.
func (s *server) replStatsSection() map[string]any {
	switch {
	case s.follower != nil:
		st := s.follower.ReplStats()
		return map[string]any{"role": "follower", "stream": st}
	case s.durable != nil:
		return map[string]any{"role": "primary", "flushed": s.durable.ReplPosition().String()}
	default:
		return map[string]any{"role": "none"}
	}
}
