package cluster_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indep/internal/cluster"
)

// TestHTTPTransportReusesConnections pins the transport's own connection
// pool: rounds of concurrent forwards to one shard reuse the connections
// the first round dialed instead of redialing all but a couple per burst.
//
// The server holds the first round's forwards until all of them have
// arrived, so that round dials one connection per forward and no more. A
// freer first round can dial a spare: a forward whose dial is still in
// flight when another forward frees a connection takes that one, and the
// spare joins the pool only when its dial goroutine finishes, possibly after
// the next burst has begun and dialed again. Every later round finds all
// its connections pooled: net/http pools a connection before the forward
// that used it reads the end of its response.
func TestHTTPTransportReusesConnections(t *testing.T) {
	const workers, rounds = 8, 20
	var dials, arrived atomic.Int64
	allArrived := make(chan struct{})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batchbin" || r.URL.Query().Get("partial") != "1" {
			http.Error(w, "unexpected "+r.URL.String(), http.StatusNotFound)
			return
		}
		if n := arrived.Add(1); n <= workers {
			if n == workers {
				close(allArrived)
			}
			select {
			case <-allArrived:
			case <-time.After(5 * time.Second):
				http.Error(w, "first round never filled", http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ops":1,"processed":1,"applied":1,"changed":1}`))
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	tr := cluster.NewHTTPTransport(cluster.Member{Name: "shard1", URL: ts.URL}, 5*time.Second)
	t.Cleanup(tr.Client.CloseIdleConnections)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := tr.ApplyPartial(context.Background(), []byte("payload"))
				if err == nil && rep.Changed != 1 {
					t.Errorf("report %+v lost the changed count", rep)
				}
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if n := dials.Load(); n > workers {
		t.Fatalf("%d rounds of %d concurrent forwards dialed %d connections, want at most %d",
			rounds, workers, n, workers)
	}
}
