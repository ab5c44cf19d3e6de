package main

// The -cluster routing tier: indepd without a store of its own, splitting
// writes across shard daemons by the placement rule (see internal/cluster)
// and answering windows on the owning shards or over fragments gathered
// from them. It is a plain stateless HTTP tier: run several routers over
// the same -shards list for availability; they compute identical
// placements.

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"indep"
	"indep/internal/cluster"
	"indep/internal/obs"
)

// newClusterServer builds the router's handler: the API routes every node
// serves, backed by the router, plus the two routes the routing tier adds.
// A router has no recovery phase, so it is ready at once.
func newClusterServer(rt *cluster.Router, logger *slog.Logger, pprofOn bool, rec obs.RecorderOptions) *server {
	s := newAPIServer(rt.Schema(), logger, pprofOn, rec)
	rt.RegisterMetrics(s.reg)
	s.handle("GET /cluster/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.Status())
	})
	// /cluster/status reports passively observed health; this one actively
	// probes every shard.
	s.handle("GET /cluster/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"shards": rt.CheckHealth(r.Context())})
	})
	s.api = routerBackend{rt}
	s.ready.Store(true)
	return s
}

// routerBackend is the cluster.Router as the API handlers' backend.
type routerBackend struct{ *cluster.Router }

func (b routerBackend) InsertCtx(ctx context.Context, rel string, row map[string]string) error {
	return b.Insert(ctx, rel, row)
}

// DeleteCtx reports whether the owning shard held the tuple.
func (b routerBackend) DeleteCtx(ctx context.Context, rel string, row map[string]string) (bool, error) {
	return b.Delete(ctx, rel, row)
}

func (b routerBackend) ApplyBinBatchPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error) {
	return b.Batch(ctx, payload)
}

func (b routerBackend) QueryCtx(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	return b.Window(ctx, q)
}

// healthLoop pings all shards on a fixed cadence so /cluster/status stays
// fresh even on an idle router; canceled by daemon shutdown.
func healthLoop(ctx context.Context, rt *cluster.Router, every time.Duration, logger *slog.Logger) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, h := range rt.CheckHealth(ctx) {
				if !h.Healthy {
					logger.Warn("shard unhealthy", "shard", h.Name, "error", h.LastError, "failures", h.Failures)
				}
			}
		}
	}
}
