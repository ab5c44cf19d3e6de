package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"indep"
	"indep/internal/obs"
)

// Transport is what the router needs from one shard. The two
// implementations are HTTPTransport (a real indepd daemon) and
// LocalTransport (an in-process store, for benchmarks and race-able fault
// tests); the replication test harness wraps either with fault injection.
type Transport interface {
	// ApplyPartial forwards a binary sub-batch for partial application,
	// one commit on the shard with per-op outcomes
	// (POST /v1/batchbin?partial=1), and returns the shard's report.
	ApplyPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error)
	// Window evaluates a whole window query on the shard (GET /v1/window).
	// It is the one read a router makes of a shard: the read path for a
	// window consulting one relation, whose answers the router merges
	// across owners, and for fallback mode; and how a gather fetches each
	// consulted relation R, as the window over R's scheme selected by
	// Where's share of R (no selection when Where does not touch R). As a
	// store does, it answers with Bin (Rows nil) when q sets BinaryResult
	// and with rendered Rows otherwise; a Bin answer is the shard's bytes,
	// unchecked.
	Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error)
	// Ping reports whether the shard is up and ready.
	Ping(ctx context.Context) error
}

// ShardError is a failed shard interaction: Status is the HTTP status the
// shard answered with, or 0 when it could not be reached at all. The router
// turns forward failures into 503 + Retry-After for the client.
type ShardError struct {
	Shard  string
	Status int
	Err    error
}

func (e *ShardError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("cluster: shard %s answered %d: %v", e.Shard, e.Status, e.Err)
	}
	return fmt.Sprintf("cluster: shard %s unreachable: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// HTTPTransport talks to one shard daemon over its HTTP API.
type HTTPTransport struct {
	Shard  string
	Base   string // base URL, no trailing slash
	Client *http.Client
}

// maxIdlePerShard is how many idle keep-alive connections a transport keeps
// to its shard: enough for every concurrent forward of a busy router to
// find a warm connection (http.DefaultTransport keeps 2 per host and redials
// the rest on every burst).
const maxIdlePerShard = 64

// NewHTTPTransport builds a transport for the member with a dedicated
// keep-alive client and connection pool, so concurrent sub-batches to the
// same shard pipeline over warm connections.
func NewHTTPTransport(m Member, timeout time.Duration) *HTTPTransport {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	pool := http.DefaultTransport.(*http.Transport).Clone()
	pool.MaxIdleConnsPerHost = maxIdlePerShard
	return &HTTPTransport{
		Shard:  m.Name,
		Base:   strings.TrimRight(m.URL, "/"),
		Client: &http.Client{Timeout: timeout, Transport: pool},
	}
}

// maxShardResponse bounds a shard response body (reports, windows); a
// gigabyte-sized window means the deployment needed more parts, not more
// router memory.
const maxShardResponse = 256 << 20

// do sends one request to the shard and returns the body of a 200. Any other
// status is a ShardError carrying it and the shard's message; a request that
// got no answer is a ShardError with Status 0.
func (t *HTTPTransport) do(ctx context.Context, method, path string, body []byte, contentType, accept string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.Base+path, rd)
	if err != nil {
		return nil, &ShardError{Shard: t.Shard, Err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	// The shard records the forward under the router request's trace ID.
	if id := obs.Trace(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return nil, &ShardError{Shard: t.Shard, Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
	if err == nil && resp.StatusCode != http.StatusOK {
		err = errors.New(strings.TrimSpace(string(data)))
	}
	if err != nil {
		return nil, &ShardError{Shard: t.Shard, Status: resp.StatusCode, Err: err}
	}
	return data, nil
}

// ApplyPartial implements Transport over POST /v1/batchbin?partial=1.
func (t *HTTPTransport) ApplyPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error) {
	data, err := t.do(ctx, http.MethodPost, "/v1/batchbin?partial=1", payload, indep.BinContentType, "")
	if err != nil {
		return nil, err
	}
	var rep indep.BatchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, &ShardError{Shard: t.Shard, Status: http.StatusOK, Err: fmt.Errorf("bad batch report: %w", err)}
	}
	return &rep, nil
}

// Window implements Transport over GET /v1/window. The binary result
// carries everything but the explain plan, so an Explain query is answered
// in JSON, and its rows are re-encoded when q asks for Bin.
func (t *HTTPTransport) Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	vals := url.Values{}
	vals.Set("attrs", strings.Join(q.Attrs, ","))
	for a, v := range q.Where {
		vals.Add("where", a+"="+v)
	}
	if len(q.Project) > 0 {
		vals.Set("project", strings.Join(q.Project, ","))
	}
	if q.Limit > 0 {
		vals.Set("limit", strconv.Itoa(q.Limit))
	}
	accept := indep.BinContentType
	if q.Explain {
		vals.Set("explain", "1")
		accept = "application/json"
	}
	data, err := t.do(ctx, http.MethodGet, "/v1/window?"+vals.Encode(), nil, "", accept)
	if err != nil {
		return nil, err
	}
	switch {
	case !q.Explain && q.BinaryResult:
		return &indep.WindowResult{Bin: data}, nil
	case !q.Explain:
		res, err := indep.DecodeWindowBinary(data)
		if err != nil {
			return nil, &ShardError{Shard: t.Shard, Status: http.StatusOK, Err: err}
		}
		return res, nil
	}
	var body struct {
		Attrs      []string             `json:"attrs"`
		Rows       []map[string]string  `json:"rows"`
		Total      int                  `json:"total"`
		FastPath   bool                 `json:"fastPath"`
		PlanCached bool                 `json:"planCached"`
		Explain    *indep.WindowExplain `json:"explain"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return nil, &ShardError{Shard: t.Shard, Status: http.StatusOK, Err: fmt.Errorf("bad window response: %w", err)}
	}
	res := &indep.WindowResult{
		Attrs: body.Attrs, Rows: body.Rows, Total: body.Total,
		FastPath: body.FastPath, PlanCached: body.PlanCached, Explain: body.Explain,
	}
	if q.BinaryResult {
		res.Bin, res.Rows = indep.EncodeWindowBinary(res), nil
	}
	return res, nil
}

// Ping implements Transport over GET /readyz.
func (t *HTTPTransport) Ping(ctx context.Context) error {
	_, err := t.do(ctx, http.MethodGet, "/readyz", nil, "", "")
	return err
}

// LocalTransport serves a shard from an in-process store, still routing
// writes through the binary wire decoder so the bytes a router forwards are
// exercised end to end. The race-able cluster fault tests use it to run a
// whole cluster in one process.
type LocalTransport struct {
	Shard string
	Store *indep.ConcurrentStore
}

// ApplyPartial implements Transport on the in-process store.
func (t *LocalTransport) ApplyPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error) {
	rep, err := t.Store.ApplyBinBatchPartial(ctx, payload)
	if err != nil {
		return nil, &ShardError{Shard: t.Shard, Err: err}
	}
	return rep, nil
}

// Window implements Transport on the in-process store.
func (t *LocalTransport) Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	res, err := t.Store.QueryCtx(ctx, q)
	if err != nil {
		return nil, &ShardError{Shard: t.Shard, Err: err}
	}
	return res, nil
}

// Ping implements Transport; an in-process store is always ready.
func (t *LocalTransport) Ping(context.Context) error { return nil }
