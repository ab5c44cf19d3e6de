package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"indep"
)

func TestRequestTraceID(t *testing.T) {
	mk := func(header string) *http.Request {
		r := httptest.NewRequest("POST", "/insert", nil)
		if header != "" {
			r.Header.Set(traceHeader, header)
		}
		return r
	}
	// A well-formed client ID is honored, uppercase normalized.
	if got := requestTraceID(mk("0123456789abcdef")); got != "0123456789abcdef" {
		t.Fatalf("valid ID rewritten to %q", got)
	}
	if got := requestTraceID(mk("0123456789ABCDEF")); got != "0123456789abcdef" {
		t.Fatalf("uppercase ID normalized to %q", got)
	}
	// Anything else is replaced by a freshly minted valid ID.
	for _, bad := range []string{"", "short", "0123456789abcdefff", "../../etc/passwd",
		"0123456789abcdeg", strings.Repeat("a", 4096)} {
		got := requestTraceID(mk(bad))
		if !indep.ValidTraceID(got) {
			t.Fatalf("header %q produced invalid trace ID %q", bad, got)
		}
		if got == bad {
			t.Fatalf("junk header %q was honored", bad)
		}
	}
}

// TestInsertSpanTree is the end-to-end tracing test: one POST /v1/tuple-style
// insert against a durable store must yield a retrievable span tree under the
// request's X-Indep-Trace ID, covering middleware (root), store, engine
// commit, and the WAL append + fsync ack. A traced window then yields the
// read side's tree: store.query over engine.window and store.render.
func TestInsertSpanTree(t *testing.T) {
	ts, _ := newDurableTestServer(t, t.TempDir(), "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")

	const id = "00c0ffee00c0ffee"
	req, err := http.NewRequest("POST", ts.URL+"/v1/insert",
		strings.NewReader(`{"relation":"CT","row":{"C":"cs101","T":"jones"}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(traceHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(traceHeader); got != id {
		t.Fatalf("response trace header %q, want %q", got, id)
	}

	tresp, tv := do(t, "GET", ts.URL+"/debug/trace/"+id, nil)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d %v", tresp.StatusCode, tv)
	}
	if tv["id"] != id || tv["route"] != "POST /insert" || tv["status"].(float64) != 200 {
		t.Fatalf("trace header: %v", tv)
	}

	spans := tv["spans"].([]any)
	if len(spans) < 5 {
		t.Fatalf("got %d spans, want at least 5: %v", len(spans), tv)
	}
	names := make([]string, len(spans))
	byName := map[string]map[string]any{}
	for i, raw := range spans {
		sp := raw.(map[string]any)
		names[i] = sp["name"].(string)
		byName[names[i]] = sp
	}
	for _, want := range []string{"POST /insert", "store.batchbin.partial", "engine.partial", "wal.append", "wal.fsync"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("span %q missing from tree %v", want, names)
		}
	}
	// The schema is independent, so the commit validated through the guards.
	if _, ok := byName["guard.validate"]; !ok {
		t.Fatalf("guard.validate missing from tree %v", names)
	}

	// Parent links encode the expected tree shape.
	idx := map[string]int{}
	for i, n := range names {
		if _, dup := idx[n]; !dup {
			idx[n] = i
		}
	}
	parent := func(name string) int { return int(byName[name]["parent"].(float64)) }
	if parent("POST /insert") != -1 {
		t.Fatalf("root has parent %d", parent("POST /insert"))
	}
	if parent("store.batchbin.partial") != idx["POST /insert"] {
		t.Fatalf("store.batchbin.partial hangs off span %d", parent("store.batchbin.partial"))
	}
	if parent("engine.partial") != idx["store.batchbin.partial"] {
		t.Fatalf("engine.partial hangs off span %d", parent("engine.partial"))
	}
	for _, walSpan := range []string{"wal.append", "wal.fsync"} {
		if parent(walSpan) != idx["engine.partial"] {
			t.Fatalf("%s hangs off span %d, want engine.partial (%d)",
				walSpan, parent(walSpan), idx["engine.partial"])
		}
	}

	// A traced window: store.query evaluates under engine.window, then
	// orders and encodes the answer under store.render.
	const wid = "00c0ffee00c0ffef"
	req, err = http.NewRequest("GET", ts.URL+"/v1/window?attrs=C,T", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(traceHeader, wid)
	req.Header.Set("Accept", indep.BinContentType)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("window: %d %v", resp.StatusCode, err)
	}
	_, tv = do(t, "GET", ts.URL+"/debug/trace/"+wid, nil)
	wspans := map[string]map[string]any{}
	wnames := []string{}
	for _, raw := range tv["spans"].([]any) {
		sp := raw.(map[string]any)
		wnames = append(wnames, sp["name"].(string))
		wspans[sp["name"].(string)] = sp
	}
	for _, want := range []string{"GET /window", "store.query", "engine.window", "store.render"} {
		if _, ok := wspans[want]; !ok {
			t.Fatalf("span %q missing from window tree %v", want, wnames)
		}
	}
	at := func(name string) int { return int(wspans[name]["parent"].(float64)) }
	if wnames[at("engine.window")] != "store.query" || wnames[at("store.render")] != "store.query" {
		t.Fatalf("engine.window hangs off %q, store.render off %q; want store.query",
			wnames[at("engine.window")], wnames[at("store.render")])
	}
	attrs := map[string]float64{}
	for _, raw := range wspans["store.render"]["attrs"].([]any) {
		a := raw.(map[string]any)
		attrs[a["key"].(string)], _ = a["value"].(float64)
	}
	if attrs["rows"] != 1 || attrs["kept"] != 1 || attrs["bytes"] != float64(len(body)) {
		t.Fatalf("store.render attrs %v, want rows 1, kept 1, bytes %d", attrs, len(body))
	}
	// The window histogram times the whole answer: evaluation and render.
	var count, sum float64
	for _, s := range family(scrape(t, ts.URL), "indep_query_window_duration_seconds").Samples {
		switch s.Name {
		case "indep_query_window_duration_seconds_count":
			count = s.Value
		case "indep_query_window_duration_seconds_sum":
			sum = s.Value
		}
	}
	spanNs := wspans["engine.window"]["durationNs"].(float64) + wspans["store.render"]["durationNs"].(float64)
	if count != 1 || sum*1e9 < spanNs {
		t.Fatalf("window histogram count %v sum %vs, want 1 window of at least engine.window + store.render = %vns",
			count, sum, spanNs)
	}
}

func TestTraceEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t, "CT(C,T)", "C -> T")

	resp, out := do(t, "GET", ts.URL+"/debug/trace/not-hex", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ID: %d %v", resp.StatusCode, out)
	}
	resp, out = do(t, "GET", ts.URL+"/debug/trace/00000000000000aa", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ID: %d %v", resp.StatusCode, out)
	}
}

func TestTraceRecent(t *testing.T) {
	ts, _ := newTestServer(t, "CT(C,T)", "C -> T")

	for i := 0; i < 3; i++ {
		resp, out := do(t, "POST", ts.URL+"/insert", map[string]any{
			"relation": "CT", "row": map[string]string{"C": "c" + strconv.Itoa(i), "T": "t"},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d: %d %v", i, resp.StatusCode, out)
		}
	}
	do(t, "GET", ts.URL+"/state", nil)

	resp, out := do(t, "GET", ts.URL+"/debug/trace/recent?route="+url.QueryEscape("POST /insert"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recent: %d %v", resp.StatusCode, out)
	}
	if out["count"].(float64) != 3 {
		t.Fatalf("recent count %v, want 3", out["count"])
	}
	for _, raw := range out["traces"].([]any) {
		tr := raw.(map[string]any)
		if tr["route"] != "POST /insert" {
			t.Fatalf("route filter leaked %v", tr["route"])
		}
	}
	// A versioned path is listed under the bare pattern, the route
	// `indep trace -route` names.
	if resp, out := do(t, "DELETE", ts.URL+"/v1/tuple", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "c0", "T": "t"},
	}); resp.StatusCode != http.StatusOK || out["deleted"] != true {
		t.Fatalf("delete: %d %v", resp.StatusCode, out)
	}
	resp, out = do(t, "GET", ts.URL+"/debug/trace/recent?route="+url.QueryEscape("DELETE /tuple"), nil)
	if resp.StatusCode != http.StatusOK || out["count"].(float64) != 1 ||
		out["traces"].([]any)[0].(map[string]any)["route"] != "DELETE /tuple" {
		t.Fatalf("recent DELETE /tuple: %d %v", resp.StatusCode, out)
	}
	// Probe/debug routes themselves are never traced.
	resp, out = do(t, "GET", ts.URL+"/debug/trace/recent?route="+url.QueryEscape("GET /debug/trace/recent"), nil)
	if resp.StatusCode != http.StatusOK || out["count"].(float64) != 0 {
		t.Fatalf("debug routes traced: %d %v", resp.StatusCode, out)
	}
}

// TestWindowExplainMatchesStats checks the executed plan reported by
// explain=1 against the engine's own QueryStats counters and the result's
// fastPath/planCached fields.
func TestWindowExplainMatchesStats(t *testing.T) {
	ts, store := newTestServer(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")

	resp, out := do(t, "POST", ts.URL+"/insert", map[string]any{
		"relation": "CT", "row": map[string]string{"C": "cs101", "T": "jones"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %v", resp.StatusCode, out)
	}

	before := store.QueryStats()
	resp, out = do(t, "GET", ts.URL+"/window?attrs=C,T&explain=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window: %d %v", resp.StatusCode, out)
	}
	after := store.QueryStats()

	ex, ok := out["explain"].(map[string]any)
	if !ok {
		t.Fatalf("explain missing: %v", out)
	}
	// Plan choice matches both the result's fastPath flag and the stats delta.
	if ex["mode"] == "fast" != (out["fastPath"] == true) {
		t.Fatalf("explain mode %v vs fastPath %v", ex["mode"], out["fastPath"])
	}
	if ex["mode"] == "fast" && after.FastEvals != before.FastEvals+1 {
		t.Fatalf("mode fast but FastEvals %d -> %d", before.FastEvals, after.FastEvals)
	}
	if ex["mode"] == "chase" && after.ChaseEvals != before.ChaseEvals+1 {
		t.Fatalf("mode chase but ChaseEvals %d -> %d", before.ChaseEvals, after.ChaseEvals)
	}
	if ex["planCached"] != out["planCached"] {
		t.Fatalf("explain planCached %v vs result %v", ex["planCached"], out["planCached"])
	}
	if ex["storeVersion"].(float64) == 0 {
		t.Fatalf("explain storeVersion missing: %v", ex)
	}
	// The scanned relations carry row counts; pruned relations don't overlap.
	scanned := map[string]bool{}
	sawCT := false
	for _, raw := range ex["relations"].([]any) {
		rs := raw.(map[string]any)
		scanned[rs["relation"].(string)] = true
		if rs["relation"] == "CT" {
			sawCT = true
			if rs["rows"].(float64) != 1 {
				t.Fatalf("CT rows %v, want 1", rs["rows"])
			}
		}
	}
	if !sawCT {
		t.Fatalf("CT not scanned: %v", ex["relations"])
	}
	if pruned, ok := ex["pruned"].([]any); ok {
		for _, p := range pruned {
			if scanned[p.(string)] {
				t.Fatalf("relation %v both scanned and pruned", p)
			}
		}
	}

	// A repeat of the same window hits the plan cache, and explain says so.
	before = store.QueryStats()
	resp, out = do(t, "GET", ts.URL+"/window?attrs=C,T&explain=true", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window 2: %d %v", resp.StatusCode, out)
	}
	after = store.QueryStats()
	ex = out["explain"].(map[string]any)
	if ex["planCached"] != true || after.PlanHits != before.PlanHits+1 {
		t.Fatalf("repeat window not plan-cached: explain=%v PlanHits %d -> %d",
			ex["planCached"], before.PlanHits, after.PlanHits)
	}

	// Without explain the field stays off the wire.
	_, out = do(t, "GET", ts.URL+"/window?attrs=C,T", nil)
	if _, present := out["explain"]; present {
		t.Fatalf("explain leaked into a plain window response: %v", out)
	}
	// Malformed explain values are a 400, not a silent default.
	resp, out = do(t, "GET", ts.URL+"/window?attrs=C,T&explain=maybe", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("explain=maybe: %d %v", resp.StatusCode, out)
	}
}

// FuzzTraceHeader checks the trace-ID laundering invariant: whatever arrives
// in X-Indep-Trace, the resolved ID is always well-formed, and a well-formed
// (case-insensitive) client ID is honored verbatim after normalization.
func FuzzTraceHeader(f *testing.F) {
	f.Add("0123456789abcdef")
	f.Add("0123456789ABCDEF")
	f.Add("")
	f.Add("zzzz")
	f.Add("0123456789abcde")
	f.Add("0123456789abcdef0")
	f.Add("../../etc/passwd\x00")
	f.Fuzz(func(t *testing.T, header string) {
		r := httptest.NewRequest("POST", "/insert", nil)
		r.Header.Set(traceHeader, header)
		got := requestTraceID(r)
		if !indep.ValidTraceID(got) {
			t.Fatalf("header %q resolved to invalid ID %q", header, got)
		}
		lowered := strings.ToLower(header)
		if indep.ValidTraceID(lowered) && got != lowered {
			t.Fatalf("valid header %q not honored: got %q", header, got)
		}
	})
}

// FuzzExplainParams throws arbitrary query parameters at parseWindowQuery:
// it must never panic, and explain must parse strictly (boolean or 400).
func FuzzExplainParams(f *testing.F) {
	f.Add("C,T", "1", "10")
	f.Add("C T", "true", "")
	f.Add("", "maybe", "-3")
	f.Add("C", "TRUE", "0x10")
	f.Fuzz(func(t *testing.T, attrs, explain, limit string) {
		vals := url.Values{}
		if attrs != "" {
			vals.Set("attrs", attrs)
		}
		if explain != "" {
			vals.Set("explain", explain)
		}
		if limit != "" {
			vals.Set("limit", limit)
		}
		q, err := parseWindowQuery(vals)
		if err != nil {
			return
		}
		if explain != "" {
			b, perr := strconv.ParseBool(explain)
			if perr != nil {
				t.Fatalf("explain=%q accepted but not a boolean", explain)
			}
			if q.Explain != b {
				t.Fatalf("explain=%q parsed as %v, want %v", explain, q.Explain, b)
			}
		}
	})
}
