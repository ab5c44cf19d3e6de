package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"indep"
)

// loadTarget serves POST /v1/batchbin as indepd does for an atomic binary
// batch: the payload is one commit on a ConcurrentStore, and a rejection
// answers 409 with the store's message. posts counts the requests.
func loadTarget(t *testing.T, sch *indep.Schema) (*httptest.Server, *indep.ConcurrentStore, *atomic.Int32) {
	t.Helper()
	store, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	posts := new(atomic.Int32)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batchbin", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		body, err := io.ReadAll(r.Body)
		if err == nil {
			_, err = store.ApplyBinBatch(r.Context(), body)
		}
		switch {
		case indep.Rejected(err):
			http.Error(w, `{"error":`+strconv.Quote(err.Error())+`,"rejected":true}`, http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, store, posts
}

// tupleFile writes lines as a tuple file and returns its path.
func tupleFile(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rows.txt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunLoadBatches(t *testing.T) {
	sch, err := indep.Parse("CT(C,T); CS(C,S)", "C -> T")
	if err != nil {
		t.Fatal(err)
	}
	path := tupleFile(t, "# seven rows", "CT(c1, t1)", "CS(c1, s1)", "CT(c2, t1)",
		"CS(c1, s2); CS(c2, s1)", "CT(c3, t2)", "CS(c3, s3)")
	for _, tc := range []struct{ batch, posts int }{
		{1, 7}, {3, 3}, {100, 1},
		{0, 7}, // below 1 behaves as 1
	} {
		ts, store, posts := loadTarget(t, sch)
		if err := runLoad(sch, path, ts.URL, tc.batch); err != nil {
			t.Fatalf("-batch %d: %v", tc.batch, err)
		}
		if store.Rows() != 7 || int(posts.Load()) != tc.posts {
			t.Fatalf("-batch %d: %d rows in %d requests, want 7 in %d", tc.batch, store.Rows(), posts.Load(), tc.posts)
		}
	}
}

// TestRunLoadAbortsOnRejection pins that a rejected batch stops the load
// with the server's message and leaves the batches before it applied.
func TestRunLoadAbortsOnRejection(t *testing.T) {
	sch, err := indep.Parse("CT(C,T); CS(C,S)", "C -> T")
	if err != nil {
		t.Fatal(err)
	}
	path := tupleFile(t, "CT(c1, t1)", "CS(c1, s1)", "CT(c2, t2)", "CS(c2, s2)",
		"CT(c1, t9)", "CS(c3, s3)") // row 5 violates C -> T
	ts, store, posts := loadTarget(t, sch)
	err = runLoad(sch, path, ts.URL, 2)
	if err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), `"rejected":true`) {
		t.Fatalf("load over a conflicting row: %v, want the server's 409 message", err)
	}
	if store.Rows() != 4 || posts.Load() != 3 {
		t.Fatalf("%d rows in %d requests, want the first two batches' 4 in 3", store.Rows(), posts.Load())
	}
}
