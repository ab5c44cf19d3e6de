package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"indep"
)

// Transport is what the router needs from one shard. The two
// implementations are HTTPTransport (a real indepd daemon) and
// LocalTransport (an in-process store, for benchmarks and race-able fault
// tests); the replication test harness wraps either with fault injection.
type Transport interface {
	// ApplyPartial forwards a binary sub-batch for per-op application
	// (POST /v1/batchbin?partial=1) and returns the shard's report.
	ApplyPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error)
	// Relation fetches the shard's raw fragment of the named relation
	// (GET /v1/cluster/rel) decoded from its binary window encoding — how a
	// gather reads a consulted relation that Where does not touch.
	Relation(ctx context.Context, rel string) (*indep.WindowResult, error)
	// Window evaluates a whole window query on the shard (GET /v1/window) —
	// the read path for a window consulting one relation, whose answers the
	// router merges across owners, and for fallback mode. A gather also
	// uses it to fetch σ_{Where∩R}(R) of a consulted relation R that Where
	// touches, as the window over R's scheme.
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

// NewHTTPTransport builds a transport for the member with a dedicated
// keep-alive client, so concurrent sub-batches to the same shard pipeline
// over warm connections.
func NewHTTPTransport(m Member, timeout time.Duration) *HTTPTransport {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &HTTPTransport{
		Shard:  m.Name,
		Base:   strings.TrimRight(m.URL, "/"),
		Client: &http.Client{Timeout: timeout},
	}
}

// maxShardResponse bounds a shard response body (reports, fragments,
// windows); a gigabyte-sized fragment means the deployment needed more
// parts, not more router memory.
const maxShardResponse = 256 << 20

func (t *HTTPTransport) do(ctx context.Context, method, path string, body []byte, contentType, accept string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.Base+path, rd)
	if err != nil {
		return 0, nil, &ShardError{Shard: t.Shard, Err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return 0, nil, &ShardError{Shard: t.Shard, Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
	if err != nil {
		return resp.StatusCode, nil, &ShardError{Shard: t.Shard, Status: resp.StatusCode, Err: err}
	}
	return resp.StatusCode, data, nil
}

// ApplyPartial implements Transport over POST /v1/batchbin?partial=1.
func (t *HTTPTransport) ApplyPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error) {
	status, data, err := t.do(ctx, http.MethodPost, "/v1/batchbin?partial=1", payload, indep.BinContentType, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, &ShardError{Shard: t.Shard, Status: status, Err: fmt.Errorf("%s", strings.TrimSpace(string(data)))}
	}
	var rep indep.BatchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, &ShardError{Shard: t.Shard, Status: status, Err: fmt.Errorf("bad batch report: %w", err)}
	}
	return &rep, nil
}

// Relation implements Transport over GET /v1/cluster/rel.
func (t *HTTPTransport) Relation(ctx context.Context, rel string) (*indep.WindowResult, error) {
	status, data, err := t.do(ctx, http.MethodGet, "/v1/cluster/rel?name="+url.QueryEscape(rel), nil, "", indep.BinContentType)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, &ShardError{Shard: t.Shard, Status: status, Err: fmt.Errorf("%s", strings.TrimSpace(string(data)))}
	}
	res, err := indep.DecodeWindowBinary(data)
	if err != nil {
		return nil, &ShardError{Shard: t.Shard, Status: status, Err: err}
	}
	return res, nil
}

// Window implements Transport over GET /v1/window. The binary result
// carries everything but the explain plan, so an Explain query falls back
// to the JSON encoding.
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
	status, data, err := t.do(ctx, http.MethodGet, "/v1/window?"+vals.Encode(), nil, "", accept)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, &ShardError{Shard: t.Shard, Status: status, Err: fmt.Errorf("%s", strings.TrimSpace(string(data)))}
	}
	if !q.Explain {
		res, err := indep.DecodeWindowBinary(data)
		if err != nil {
			return nil, &ShardError{Shard: t.Shard, Status: status, Err: err}
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
		return nil, &ShardError{Shard: t.Shard, Status: status, Err: fmt.Errorf("bad window response: %w", err)}
	}
	return &indep.WindowResult{
		Attrs: body.Attrs, Rows: body.Rows, Total: body.Total,
		FastPath: body.FastPath, PlanCached: body.PlanCached, Explain: body.Explain,
	}, nil
}

// Ping implements Transport over GET /readyz.
func (t *HTTPTransport) Ping(ctx context.Context) error {
	status, data, err := t.do(ctx, http.MethodGet, "/readyz", nil, "", "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return &ShardError{Shard: t.Shard, Status: status, Err: fmt.Errorf("%s", strings.TrimSpace(string(data)))}
	}
	return nil
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

// Relation implements Transport on the in-process store.
func (t *LocalTransport) Relation(ctx context.Context, rel string) (*indep.WindowResult, error) {
	data, err := t.Store.RelationBinary(rel)
	if err != nil {
		return nil, &ShardError{Shard: t.Shard, Err: err}
	}
	res, err := indep.DecodeWindowBinary(data)
	if err != nil {
		return nil, &ShardError{Shard: t.Shard, Err: err}
	}
	return res, nil
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
