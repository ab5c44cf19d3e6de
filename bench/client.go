package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"indep"
)

// client is one benchmark client: one keep-alive connection to one base
// URL. A run never holds more clients than the host has cores.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, path string, body []byte, accept string) (int, string, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", indep.BinContentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), data, err
}

// batchReply is what a write answers: a node says how many operations it
// accepted, a router reports per-operation outcomes.
type batchReply struct {
	Accepted int               `json:"accepted"`
	Ops      int               `json:"ops"`
	Applied  int               `json:"applied"`
	Rejected []indep.OpOutcome `json:"rejected"`
}

// postBatch sends a binary batch to POST /v1/batchbin. The status is
// returned as is: 409 is a verdict the caller may have asked for.
func (c *client) postBatch(ctx context.Context, payload []byte) (int, batchReply, error) {
	status, _, data, err := c.do(ctx, http.MethodPost, "/v1/batchbin", payload, "")
	if err != nil {
		return 0, batchReply{}, err
	}
	var rep batchReply
	if status == http.StatusOK {
		if err := json.Unmarshal(data, &rep); err != nil {
			return status, rep, fmt.Errorf("bad batch reply %q: %w", data, err)
		}
	}
	return status, rep, nil
}

// apply posts a batch of n operations that must all be taken.
func (c *client) apply(ctx context.Context, payload []byte, n int) error {
	status, rep, err := c.postBatch(ctx, payload)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return rep.applied(n)
}

// applied checks that a 200 reply took all n operations: a node accepts
// them all or answers 409, a router applies each and lists refusals.
func (r batchReply) applied(n int) error {
	if r.Accepted == n || (r.Ops == n && r.Applied == n && len(r.Rejected) == 0) {
		return nil
	}
	return fmt.Errorf("batch of %d ops only partly applied: %+v", n, r)
}

// getWindow runs GET /v1/window asking for the binary encoding. A node
// answers IWIN1; the router tier only speaks JSON, which is decoded into
// the same shape.
func (c *client) getWindow(ctx context.Context, query string) (*indep.WindowResult, error) {
	status, ctype, data, err := c.do(ctx, http.MethodGet, "/v1/window?"+query, nil, indep.BinContentType)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("window %s: status %d: %s", query, status, bytes.TrimSpace(data))
	}
	if strings.HasPrefix(ctype, indep.BinContentType) {
		return indep.DecodeWindowBinary(data)
	}
	var body struct {
		Attrs    []string            `json:"attrs"`
		Rows     []map[string]string `json:"rows"`
		Total    int                 `json:"total"`
		FastPath bool                `json:"fastPath"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return nil, fmt.Errorf("window %s: bad JSON: %w", query, err)
	}
	return &indep.WindowResult{Attrs: body.Attrs, Rows: body.Rows, Total: body.Total, FastPath: body.FastPath}, nil
}

// tuples returns the per-relation row counts of a node.
func (c *client) tuples(ctx context.Context) (map[string]int64, error) {
	status, _, data, err := c.do(ctx, http.MethodGet, "/stats", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", status)
	}
	var st struct {
		Relations []struct {
			Relation string `json:"relation"`
			Tuples   int64  `json:"tuples"`
		} `json:"relations"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(st.Relations))
	for _, r := range st.Relations {
		out[r.Relation] = r.Tuples
	}
	return out, nil
}

// relation fetches a node's whole fragment of one relation
// (GET /v1/cluster/rel), the read the routed workload's final diff uses.
func (c *client) relation(ctx context.Context, rel string) (*indep.WindowResult, error) {
	status, _, data, err := c.do(ctx, http.MethodGet, "/v1/cluster/rel?name="+rel, nil, indep.BinContentType)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster/rel %s: status %d", rel, status)
	}
	return indep.DecodeWindowBinary(data)
}

// canon renders a window result as one comparable string: attributes,
// total, then the rows in the order served.
func canon(res *indep.WindowResult) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Attrs, ","))
	fmt.Fprintf(&b, "|%d", res.Total)
	for _, row := range res.Rows {
		b.WriteByte('|')
		for i, a := range res.Attrs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(row[a])
		}
	}
	return b.String()
}

// wellFormed is the check a window gets while writes race it and no exact
// expectation exists: fast path, the attributes asked for, no more rows
// than the limit, and every row honouring the selection.
func wellFormed(w window, res *indep.WindowResult) error {
	if !res.FastPath {
		return fmt.Errorf("window %s left the fast path", w.query)
	}
	if len(res.Attrs) != len(w.q.Attrs) {
		return fmt.Errorf("window %s: attributes %v", w.query, res.Attrs)
	}
	if w.q.Limit > 0 && len(res.Rows) > w.q.Limit {
		return fmt.Errorf("window %s: %d rows exceed the limit", w.query, len(res.Rows))
	}
	for _, row := range res.Rows {
		for a, v := range w.q.Where {
			if row[a] != v {
				return fmt.Errorf("window %s: row %v fails the selection", w.query, row)
			}
		}
	}
	return nil
}
