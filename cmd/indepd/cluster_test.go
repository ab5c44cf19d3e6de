package main

// End-to-end drills for the -cluster routing tier: real shard daemons
// (httptest servers running the single-node handler) fronted by the same
// server in router mode, all over actual HTTP — the only pieces not from production
// are the listeners. The 503 drill replaces one shard with a closed port
// and pins the router's unavailability contract: 503, Retry-After, the
// shard's name, and a partial report the client can act on.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"indep"
	"indep/internal/cluster"
	"indep/internal/obs"
)

const clusterSchema = "CT(C,T); CS(C,S); CHR(C,H,R)"
const clusterFDs = "C -> T; C H -> R"

// newClusterTestServer stands up n shard daemons and a router over them.
// deadShards names shards whose daemon is shut down before the router
// starts (the URL keeps refusing connections).
func newClusterTestServer(t *testing.T, n int, deadShards ...string) (*httptest.Server, *cluster.Router) {
	t.Helper()
	dead := make(map[string]bool, len(deadShards))
	for _, s := range deadShards {
		dead[s] = true
	}
	var members []cluster.Member
	for i := 1; i <= n; i++ {
		name := "shard" + string(rune('0'+i))
		shard, _ := newTestServer(t, clusterSchema, clusterFDs)
		if dead[name] {
			shard.Close()
		}
		members = append(members, cluster.Member{Name: name, URL: shard.URL})
	}
	sch, err := indep.Parse(clusterSchema, clusterFDs)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(sch, members, cluster.Options{
		Retries: 1,
		Backoff: time.Millisecond,
		Timeout: 5 * time.Second,
		Logger:  discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newClusterServer(rt, discardLogger(), false, obs.RecorderOptions{SampleEvery: 1}))
	t.Cleanup(ts.Close)
	return ts, rt
}

// TestClusterEndToEnd drives inserts, batches, a rejection, and windows on
// both read paths through the router's HTTP API against live shard daemons.
func TestClusterEndToEnd(t *testing.T) {
	ts, rt := newClusterTestServer(t, 3)

	resp, _ := do(t, http.MethodPost, ts.URL+"/v1/insert",
		map[string]any{"relation": "CT", "row": map[string]string{"C": "c1", "T": "t1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d", resp.StatusCode)
	}
	// The same C with a different T violates C -> T on whatever shard owns it.
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/insert",
		map[string]any{"relation": "CT", "row": map[string]string{"C": "c1", "T": "t2"}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting insert: %d (%v)", resp.StatusCode, body)
	}

	var ops []map[string]any
	for _, c := range []string{"c1", "c2", "c3", "c4"} {
		ops = append(ops,
			map[string]any{"relation": "CS", "row": map[string]string{"C": c, "S": "s-" + c}},
			map[string]any{"relation": "CHR", "row": map[string]string{"C": c, "H": "h1", "R": "r-" + c}})
	}
	resp, body = do(t, http.MethodPost, ts.URL+"/v1/batch", map[string]any{"ops": ops})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d (%v)", resp.StatusCode, body)
	}
	if body["applied"].(float64) != 8 || body["ops"].(float64) != 8 {
		t.Fatalf("batch report: %v", body)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/v1/window?attrs=C,T,S", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window: %d (%v)", resp.StatusCode, body)
	}
	if body["rowCount"].(float64) != 1 { // only c1 has both a T and an S
		t.Fatalf("window rows: %v", body)
	}
	row := body["rows"].([]any)[0].(map[string]any)
	if row["C"] != "c1" || row["T"] != "t1" || row["S"] != "s-c1" {
		t.Fatalf("window row: %v", row)
	}

	// Single-relation windows are evaluated on CHR's owning shard daemons
	// and merged by the router, so the query travels through
	// HTTPTransport.Window — with explain=1, over its JSON answer. An
	// in-process store holding the same rows is the oracle.
	if owners := rt.Placement().Owners("CHR"); len(owners) < 2 {
		t.Fatalf("CHR lives on %v; the merge needs two owners", owners)
	}
	sch, err := indep.Parse(clusterSchema, clusterFDs)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Insert("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		c := fmt.Sprintf("c%d", i)
		ops = append(ops, map[string]any{"relation": "CHR", "row": map[string]string{"C": c, "H": "h2", "R": "r-" + c}})
	}
	resp, body = do(t, http.MethodPost, ts.URL+"/v1/batch", map[string]any{"ops": ops[8:]})
	if resp.StatusCode != http.StatusOK || body["applied"].(float64) != 12 {
		t.Fatalf("batch: %d (%v)", resp.StatusCode, body)
	}
	for _, op := range ops {
		if err := oracle.Insert(op["relation"].(string), op["row"].(map[string]string)); err != nil {
			t.Fatal(err)
		}
	}
	// Join windows with a Where fetch each relation it selects on as a
	// window through HTTPTransport.Window (repeated where parameters
	// included), the others whole, and are evaluated on the router.
	for _, query := range []string{
		"attrs=C,H,R&where=H=h2&project=C,R&limit=3&explain=1", // owners' answers disjoint
		"attrs=C,H,R&project=H&limit=1&explain=1",              // they overlap: H=h1/h2 on every owner
		"attrs=C,H,R&where=C=c3&where=H=h2&explain=1",          // key bound: one owner
		"attrs=C,T,S&where=C=c1&explain=1",                     // CS and CT both selected; CT on one owner
		"attrs=C,T,S&where=C=c1&where=S=s-c1",                  // two conditions in CS's fetch
		"attrs=S,T&where=S=s-c2&explain=1",                     // only CS selected; CT fetched whole
		"attrs=C,T,S&where=C=nope",                             // an unseen value: no rows anywhere
	} {
		vals, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		q, err := parseWindowQuery(vals)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, body = do(t, http.MethodGet, ts.URL+"/v1/window?"+query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %s: %d (%v)", query, resp.StatusCode, body)
		}
		ex, _ := body["explain"].(map[string]any)
		if !reflect.DeepEqual(body["rows"], jsonValue(t, want.Rows)) || body["total"] != float64(want.Total) ||
			q.Explain && (ex == nil || !reflect.DeepEqual(ex["relations"], jsonValue(t, want.Explain.Relations))) {
			t.Fatalf("window %s:\nrouter %v\noracle rows %v total %d explain %+v",
				query, body, want.Rows, want.Total, want.Explain)
		}
	}
	// A malformed query is the client's error, not every owner's.
	for _, query := range []string{"attrs=C,H&where=R=r-c1", "attrs=C,H&project=R"} {
		if resp, body = do(t, http.MethodGet, ts.URL+"/v1/window?"+query, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("window %s: %d (%v), want 400", query, resp.StatusCode, body)
		}
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/v1/cluster/status", nil)
	if resp.StatusCode != http.StatusOK || body["mode"] != "sharded" {
		t.Fatalf("status: %d %v", resp.StatusCode, body)
	}
	if n := len(body["relations"].([]any)); n != 3 {
		t.Fatalf("status lists %d relations", n)
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/cluster/health", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health: %d", resp.StatusCode)
	}
	for _, s := range body["shards"].([]any) {
		if !s.(map[string]any)["healthy"].(bool) {
			t.Fatalf("shard reported unhealthy: %v", s)
		}
	}
}

// jsonValue is v as a decoded JSON response holds it.
func jsonValue(t *testing.T, v any) any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterShardDown503 pins the router's unavailability contract over
// real HTTP: an op owned by an unreachable shard answers 503 with
// Retry-After and names the shard; ops owned by live shards still work.
func TestClusterShardDown503(t *testing.T) {
	const dead = "shard2"
	ts, rt := newClusterTestServer(t, 3, dead)

	rowOwnedBy(t, rt, dead, true) // sanity: the dead shard owns something
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/insert",
		map[string]any{"relation": "CT", "row": rowOwnedBy(t, rt, dead, true)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert to dead shard: %d (%v)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if body["shard"] != dead {
		t.Fatalf("503 names shard %v, want %s", body["shard"], dead)
	}
	if !strings.Contains(body["error"].(string), "unreachable") {
		t.Fatalf("503 error: %v", body["error"])
	}

	resp, _ = do(t, http.MethodPost, ts.URL+"/v1/insert",
		map[string]any{"relation": "CT", "row": rowOwnedBy(t, rt, dead, false)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert to live shard: %d", resp.StatusCode)
	}

	// A batch spanning live and dead shards answers 503 but carries the
	// partial report, so the client knows the live shards applied theirs.
	var ops []map[string]any
	for i := 0; i < 16; i++ {
		ops = append(ops, map[string]any{"relation": "CS",
			"row": map[string]string{"C": fmt.Sprintf("bc%d", i), "S": "s1"}})
	}
	resp, body = do(t, http.MethodPost, ts.URL+"/v1/batch", map[string]any{"ops": ops})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("spanning batch: %d (%v)", resp.StatusCode, body)
	}
	rep, ok := body["report"].(map[string]any)
	if !ok {
		t.Fatalf("503 batch response has no report: %v", body)
	}
	if rep["ops"].(float64) != 16 || rep["processed"].(float64) >= 16 || rep["processed"].(float64) == 0 {
		t.Fatalf("partial report: %v", rep)
	}

	// Health reflects the outage.
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/cluster/health", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health: %d", resp.StatusCode)
	}
	for _, s := range body["shards"].([]any) {
		m := s.(map[string]any)
		if (m["name"] == dead) == m["healthy"].(bool) {
			t.Fatalf("health for %v: %v", m["name"], m["healthy"])
		}
	}
}

// rowOwnedBy searches for a CT row the placement assigns (want=true) or
// does not assign (want=false) to the shard.
func rowOwnedBy(t *testing.T, rt *cluster.Router, shard string, want bool) map[string]string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		row := map[string]string{"C": fmt.Sprintf("probe%d", i), "T": "t"}
		owner, err := rt.Placement().Owner("CT", row)
		if err != nil {
			t.Fatal(err)
		}
		if (owner == shard) == want {
			return row
		}
	}
	t.Fatalf("no CT row with owner==%s being %v in 10000 probes", shard, want)
	return nil
}

// TestClusterBatchBinPartialHTTP pins the shard-side ?partial=1 surface
// the router forwards over: 200 with a JSON report even when ops are
// rejected, against the atomic mode's 409.
func TestClusterBatchBinPartialHTTP(t *testing.T) {
	ts, _ := newTestServer(t, clusterSchema, clusterFDs)
	sch, err := indep.Parse(clusterSchema, clusterFDs)
	if err != nil {
		t.Fatal(err)
	}
	enc := indep.NewBinBatchEncoder(sch)
	for _, r := range []map[string]string{
		{"C": "c1", "T": "t1"}, {"C": "c1", "T": "t2"}, {"C": "c2", "T": "t1"},
	} {
		if err := enc.Add("CT", r); err != nil {
			t.Fatal(err)
		}
	}
	payload := enc.Bytes()

	post := func(url string) *http.Response {
		t.Helper()
		resp, err := http.Post(url, indep.BinContentType, strings.NewReader(string(payload)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(ts.URL + "/v1/batchbin"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("atomic batchbin with violation: %d", resp.StatusCode)
	}
	resp := post(ts.URL + "/v1/batchbin?partial=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batchbin: %d", resp.StatusCode)
	}
	var rep indep.BatchReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 3 || rep.Applied != 2 || len(rep.Rejected) != 1 || rep.Rejected[0].Index != 1 {
		t.Fatalf("partial report: %+v", rep)
	}
	if resp := post(ts.URL + "/v1/batchbin?partial=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus partial param: %d", resp.StatusCode)
	}
}

// TestClusterRelEndpoint pins the fragment endpoint the gather path reads.
func TestClusterRelEndpoint(t *testing.T) {
	ts, store := newTestServer(t, clusterSchema, clusterFDs)
	if err := store.Insert("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/cluster/rel?name=CT")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster/rel: %d", resp.StatusCode)
	}
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	res, err := indep.DecodeWindowBinary([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["C"] != "c1" || res.Rows[0]["T"] != "t1" {
		t.Fatalf("fragment rows: %v", res.Rows)
	}
	for _, bad := range []string{"", "nope"} {
		resp, err := http.Get(ts.URL + "/v1/cluster/rel?name=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("cluster/rel?name=%q: %d", bad, resp.StatusCode)
		}
	}
}

// TestClusterRouterDelete checks the router answers a delete like a node:
// {"deleted":true} when the owning shard held the tuple, false after.
func TestClusterRouterDelete(t *testing.T) {
	ts, _ := newClusterTestServer(t, 3)
	tuple := map[string]any{"relation": "CT", "row": map[string]string{"C": "c1", "T": "t1"}}
	if resp, body := do(t, http.MethodPost, ts.URL+"/v1/insert", tuple); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d (%v)", resp.StatusCode, body)
	}
	for _, want := range []bool{true, false} {
		resp, body := do(t, http.MethodDelete, ts.URL+"/v1/tuple", tuple)
		if resp.StatusCode != http.StatusOK || body["deleted"] != want {
			t.Fatalf("delete: %d (%v), want deleted=%v", resp.StatusCode, body, want)
		}
	}
}

// TestClusterSingleOpsMatchNode sends one sequence of single-op writes to
// a router and to a single node: insert, conflicting insert, re-insert,
// delete, re-delete, an unknown relation and a missing attribute, then the
// [S T] window twice, empty. Both tiers apply the op as a
// one-op payload, so every status code and body must be byte-identical; of
// the window only elapsedNs is left out. The window consults CS and CT,
// so the router evaluates it over gathered rows; it must still
// report planCached false on the first window and true on the second.
func TestClusterSingleOpsMatchNode(t *testing.T) {
	router, _ := newClusterTestServer(t, 3)
	node, _ := newTestServer(t, clusterSchema, clusterFDs)
	ct := func(c, t string) string { return `{"relation":"CT","row":{"C":"` + c + `","T":"` + t + `"}}` }
	steps := []struct {
		method, path, body string
		code               int
	}{
		{http.MethodPost, "/v1/insert", ct("c1", "t1"), http.StatusOK},
		{http.MethodPost, "/v1/insert", ct("c1", "t2"), http.StatusConflict},
		{http.MethodPost, "/v1/insert", ct("c1", "t1"), http.StatusOK},
		{http.MethodDelete, "/v1/tuple", ct("c1", "t1"), http.StatusOK},
		{http.MethodDelete, "/v1/tuple", ct("c1", "t1"), http.StatusOK},
		{http.MethodPost, "/v1/insert", `{"relation":"XY","row":{"C":"c1"}}`, http.StatusBadRequest},
		{http.MethodDelete, "/v1/tuple", `{"relation":"CT","row":{"C":"c1"}}`, http.StatusBadRequest},
		{http.MethodGet, "/v1/window?attrs=S,T", "", http.StatusOK},
		{http.MethodGet, "/v1/window?attrs=S,T", "", http.StatusOK},
	}
	send := func(base string, i int) (int, string) {
		st := steps[i]
		req, err := http.NewRequest(st.method, base+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if st.method == http.MethodGet {
			var win map[string]any
			if err := json.Unmarshal(body, &win); err != nil {
				t.Fatal(err)
			}
			// Only the last step, the repeated window, hits the plan cache.
			if cached := i == len(steps)-1; win["planCached"] != cached {
				t.Fatalf("step %d %s: planCached %v, want %v", i, base, win["planCached"], cached)
			}
			delete(win, "elapsedNs")
			body, _ = json.Marshal(win)
		}
		return resp.StatusCode, string(body)
	}
	for i, st := range steps {
		rcode, rbody := send(router.URL, i)
		ncode, nbody := send(node.URL, i)
		if rcode != st.code || ncode != st.code || rbody != nbody {
			t.Fatalf("step %d %s %s %s: router %d %s, node %d %s, want %d from both",
				i, st.method, st.path, st.body, rcode, rbody, ncode, nbody, st.code)
		}
	}
}

// TestClusterTraceCrossesHop sends a write through the router under a
// client trace ID: the router's flight recorder keeps the request, and the
// owning shard's keeps the forward, both under that ID.
func TestClusterTraceCrossesHop(t *testing.T) {
	ts, rt := newClusterTestServer(t, 3)
	const id = "0123456789abcdef"
	row := map[string]string{"C": "c1", "T": "t1"}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/insert",
		strings.NewReader(`{"relation":"CT","row":{"C":"c1","T":"t1"}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(traceHeader, id)
	if resp, body := doReq(t, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d (%v)", resp.StatusCode, body)
	}

	owner, err := rt.Placement().Owner("CT", row)
	if err != nil {
		t.Fatal(err)
	}
	shardURL := ""
	for _, h := range rt.Health() {
		if h.Name == owner {
			shardURL = h.URL
		}
	}
	for _, hop := range []struct{ base, route string }{
		{ts.URL, "POST /insert"},
		{shardURL, "POST /batchbin"},
	} {
		resp, tv := do(t, http.MethodGet, hop.base+"/debug/trace/"+id, nil)
		if resp.StatusCode != http.StatusOK || tv["route"] != hop.route {
			t.Fatalf("trace on %s: %d %v, want route %q", hop.base, resp.StatusCode, tv, hop.route)
		}
	}
}

// TestClusterRouterServesNodeSurface checks the router serves what a node
// serves around the API: a lint-clean /metrics with the HTTP, cluster and
// flight-recorder families, /debug/trace, strict ?partial parsing, window
// answers in IWIN1 when asked and in JSON otherwise, and readiness.
func TestClusterRouterServesNodeSurface(t *testing.T) {
	ts, _ := newClusterTestServer(t, 2)
	sch, err := indep.Parse(clusterSchema, clusterFDs)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		row := map[string]string{"C": fmt.Sprintf("c%d", i), "T": fmt.Sprintf("t%d", i%2)}
		if resp, body := do(t, http.MethodPost, ts.URL+"/v1/insert", map[string]any{"relation": "CT", "row": row}); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: %d (%v)", resp.StatusCode, body)
		}
		if err := oracle.Insert("CT", row); err != nil {
			t.Fatal(err)
		}
	}

	fams := scrape(t, ts.URL)
	lat := family(fams, "indep_http_request_duration_seconds")
	if lat == nil || !slices.ContainsFunc(lat.Samples, func(s obs.Sample) bool { return s.Label("route") == "POST /insert" }) {
		t.Fatalf("no POST /insert latency series: %+v", lat)
	}
	for _, prefix := range []string{"indep_cluster_", "obs_trace_"} {
		if !slices.ContainsFunc(fams, func(f obs.ParsedFamily) bool { return strings.HasPrefix(f.Name, prefix) }) {
			t.Errorf("scrape has no %s* family", prefix)
		}
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/debug/trace/recent?route="+url.QueryEscape("POST /insert"), nil)
	if resp.StatusCode != http.StatusOK || body["count"].(float64) != 6 {
		t.Fatalf("recent router traces: %d %v", resp.StatusCode, body)
	}

	bresp, err := http.Post(ts.URL+"/v1/batchbin?partial=bogus", indep.BinContentType, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus partial parameter: %d, want 400", bresp.StatusCode)
	}

	// Asked for the binary encoding, the router answers IWIN1; asked for
	// nothing, JSON. Both carry the oracle's rows.
	q := indep.WindowQuery{Attrs: []string{"C", "T"}, Where: map[string]string{"T": "t1"}}
	want, err := oracle.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	status, ctype, data := getWindow(t, ts.URL+"/v1/window?attrs=C,T&where=T=t1", indep.BinContentType)
	if status != http.StatusOK || ctype != indep.BinContentType {
		t.Fatalf("binary window request answered %q: %q", ctype, data)
	}
	got, err := indep.DecodeWindowBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Rows, want.Rows) ||
		got.Total != want.Total || len(want.Rows) != 3 {
		t.Fatalf("router binary answer %v %v (total %d), oracle %v %v (total %d)",
			got.Attrs, got.Rows, got.Total, want.Attrs, want.Rows, want.Total)
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/window?attrs=C,T&where=T=t1", nil)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("JSON window request: %d %q %v", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	if !reflect.DeepEqual(body["rows"], jsonValue(t, want.Rows)) {
		t.Fatalf("router rows %v, oracle %v", body["rows"], want.Rows)
	}

	if resp, body := do(t, http.MethodGet, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d %v", resp.StatusCode, body)
	}
}

// TestClusterWindowEncodings holds the router's window answers against a
// single-node oracle in each encoding, on windows its owners answer (one
// owner, forwarded; several, merged) and on one it evaluates over gathered
// fragments: IWIN1 when the client accepts it, JSON when it does not, and
// JSON with the explain block when it asks for the plan, whose room the
// IWIN1 layout lacks.
func TestClusterWindowEncodings(t *testing.T) {
	ts, _ := newClusterTestServer(t, 2)
	sch, err := indep.Parse(clusterSchema, clusterFDs)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sch.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for rel, row := range map[string]map[string]string{
			"CT": {"C": fmt.Sprint("c", i), "T": fmt.Sprint("t", i%2)},
			"CS": {"C": fmt.Sprint("c", i%4), "S": fmt.Sprint("s", i)},
		} {
			if resp, body := do(t, http.MethodPost, ts.URL+"/v1/insert", map[string]any{"relation": rel, "row": row}); resp.StatusCode != http.StatusOK {
				t.Fatalf("insert: %d (%v)", resp.StatusCode, body)
			}
			if err := oracle.Insert(rel, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		query string
		q     indep.WindowQuery
	}{
		{"attrs=C,S&where=C=c1", indep.WindowQuery{Attrs: []string{"C", "S"}, Where: map[string]string{"C": "c1"}}},
		{"attrs=C,S&limit=5", indep.WindowQuery{Attrs: []string{"C", "S"}, Limit: 5}},
		{"attrs=C,S&project=S", indep.WindowQuery{Attrs: []string{"C", "S"}, Project: []string{"S"}}},
		{"attrs=S,T", indep.WindowQuery{Attrs: []string{"S", "T"}}},
	} {
		want, err := oracle.Query(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		url := ts.URL + "/v1/window?" + tc.query
		status, ctype, data := getWindow(t, url, indep.BinContentType)
		if status != http.StatusOK || ctype != indep.BinContentType {
			t.Fatalf("%s: %d %q %q, want IWIN1", tc.query, status, ctype, data)
		}
		got, err := indep.DecodeWindowBinary(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if !reflect.DeepEqual(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Rows, want.Rows) || got.Total != want.Total {
			t.Fatalf("%s: router %v %v (total %d), oracle %v %v (total %d)",
				tc.query, got.Attrs, got.Rows, got.Total, want.Attrs, want.Rows, want.Total)
		}
		resp, body := do(t, http.MethodGet, url, nil)
		if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(body["rows"], jsonValue(t, want.Rows)) {
			t.Fatalf("%s in JSON: %d rows %v, oracle %v", tc.query, resp.StatusCode, body["rows"], want.Rows)
		}
		if rows := checkExplainAnswersJSON(t, url+"&explain=1"); !reflect.DeepEqual(rows, want.Rows) {
			t.Fatalf("%s with explain: rows %v, oracle %v", tc.query, rows, want.Rows)
		}
	}
}

// TestClusterCorruptShardAnswer503: a shard whose window answer fails the
// router's check — bad checksum, trailing bytes, an unbound value — makes
// the router answer 503 naming the shard, whether it would have forwarded
// the answer (one owner) or merged it (two); the bytes never reach the
// client.
func TestClusterCorruptShardAnswer503(t *testing.T) {
	good := windowBinary([]string{"C", "T"}, []string{"c1", "t1"})
	sch, err := indep.Parse("CT(C,T)", "C -> T")
	if err != nil {
		t.Fatal(err)
	}
	for name, reply := range map[string][]byte{
		"bad checksum":   append(slices.Clone(good[:len(good)-1]), good[len(good)-1]^1),
		"trailing bytes": reCRC(append(slices.Clone(good[:len(good)-4]), 0)),
		"unbound value":  reCRC(append(slices.Clone(good[:len(good)-5]), 0x7e)),
	} {
		t.Run(name, func(t *testing.T) {
			shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", indep.BinContentType)
				w.Write(reply)
			}))
			t.Cleanup(shard.Close)
			rt, err := cluster.NewRouter(sch, []cluster.Member{{Name: "shard1", URL: shard.URL}, {Name: "shard2", URL: shard.URL}},
				cluster.Options{Retries: 1, Backoff: time.Millisecond, Logger: discardLogger()})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(newClusterServer(rt, discardLogger(), false, obs.RecorderOptions{}))
			t.Cleanup(ts.Close)
			for _, query := range []string{"attrs=C,T&where=C=c1", "attrs=C,T"} {
				status, ctype, data := getWindow(t, ts.URL+"/v1/window?"+query, indep.BinContentType)
				var body map[string]any
				if status != http.StatusServiceUnavailable || json.Unmarshal(data, &body) != nil {
					t.Fatalf("%s: corrupt shard answer: %d %q %q, want a 503 in JSON", query, status, ctype, data)
				}
				if !strings.HasPrefix(fmt.Sprint(body["shard"]), "shard") || !strings.Contains(fmt.Sprint(body["error"]), "bad window answer") {
					t.Fatalf("%s: corrupt shard answer: %v", query, body)
				}
			}
		})
	}
}

// windowBinary is a one-row binary window answer over attrs, built by
// hand: the first bytes a corrupt variant starts from.
func windowBinary(attrs, row []string) []byte {
	buf := append([]byte("IWIN1"), 1) // fastPath
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(attrs)))
	for _, a := range attrs {
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for i, v := range row {
		buf = binary.AppendVarint(buf, int64(i+1))
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	buf = binary.AppendUvarint(buf, 1)
	for i := range row {
		buf = binary.AppendVarint(buf, int64(i+1))
	}
	return reCRC(buf)
}

// reCRC appends the checksum the binary window encoding ends with.
func reCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}
