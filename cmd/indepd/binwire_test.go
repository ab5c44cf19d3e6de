package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"indep"
)

// TestBatchBinEndpoint pins the binary ingest contract end to end: a 64-op
// BinBatchEncoder payload POSTed to /v1/batchbin lands atomically, and the
// binary window response decodes to the ingested rows.
func TestBatchBinEndpoint(t *testing.T) {
	ts, store := newTestServer(t, "CT(C,T); CS(C,S)", "C -> T")
	sch, err := indep.Parse("CT(C,T); CS(C,S)", "C -> T")
	if err != nil {
		t.Fatal(err)
	}
	enc := indep.NewBinBatchEncoder(sch)
	for i := 0; i < 32; i++ {
		c := fmt.Sprintf("c%d", i)
		if err := enc.Add("CT", map[string]string{"C": c, "T": "t" + c}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Add("CS", map[string]string{"C": c, "S": "s" + c}); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Len() != 64 {
		t.Fatalf("encoder holds %d ops, want 64", enc.Len())
	}
	resp, err := http.Post(ts.URL+"/v1/batchbin", indep.BinContentType, bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batchbin: %s: %s", resp.Status, body)
	}
	if want := `{"status":"ok","accepted":64}` + "\n"; string(body) != want {
		t.Fatalf("batchbin body %q, want %q", body, want)
	}
	if store.Rows() != 64 {
		t.Fatalf("store has %d rows, want 64", store.Rows())
	}

	// Binary window read-back via the Accept header.
	req, err := http.NewRequest("GET", ts.URL+"/v1/window?attrs=C,T&limit=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", indep.BinContentType)
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wbody, _ := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("binary window: %s: %s", wresp.Status, wbody)
	}
	if ct := wresp.Header.Get("Content-Type"); ct != indep.BinContentType {
		t.Fatalf("binary window Content-Type %q", ct)
	}
	res, err := indep.DecodeWindowBinary(wbody)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 32 || len(res.Rows) != 5 {
		t.Fatalf("binary window total=%d rows=%d, want 32/5", res.Total, len(res.Rows))
	}
	for _, row := range res.Rows {
		if row["T"] != "t"+row["C"] {
			t.Fatalf("binary window row %v inconsistent", row)
		}
	}

	// A rejecting binary batch maps to 409, same as the JSON path.
	enc.Reset()
	enc.Add("CT", map[string]string{"C": "c0", "T": "mismatch"})
	resp, err = http.Post(ts.URL+"/v1/batchbin", indep.BinContentType, bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rejecting batchbin: %s, want 409", resp.Status)
	}

	// A malformed body maps to 400.
	resp, err = http.Post(ts.URL+"/v1/batchbin", indep.BinContentType, bytes.NewReader([]byte("not frames")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batchbin: %s, want 400", resp.Status)
	}

	// A commit record followed by a frame of the retired per-operation
	// kind 2 is refused as a whole, and the error names the upgrade step.
	enc.Reset()
	enc.Add("CT", map[string]string{"C": "c99", "T": "t99"})
	p := []byte{2, 0, 2, 2, 4} // kind 2: insert CT(1, 2)
	legacy := binary.LittleEndian.AppendUint32(enc.Bytes(), uint32(len(p)))
	legacy = binary.LittleEndian.AppendUint32(legacy, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	resp, err = http.Post(ts.URL+"/v1/batchbin", indep.BinContentType, bytes.NewReader(append(legacy, p...)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "checkpoint") {
		t.Fatalf("per-operation batchbin: %s %s, want 400 naming the upgrade step", resp.Status, body)
	}
	if store.Rows() != 64 {
		t.Fatalf("store has %d rows after a refused payload, want 64", store.Rows())
	}

	// A Content-Length that overstates the body (far past the 1 MiB the
	// server reserves from it) or understates it is a bad body, and
	// nothing lands.
	enc.Reset()
	enc.Add("CT", map[string]string{"C": "c100", "T": "t100"})
	payload := enc.Bytes()
	for declared, want := range map[int]string{
		16 << 20:         "bad body: unexpected EOF",
		len(payload) - 3: "binary batch: wal: incomplete frame",
	} {
		status, body := rawPost(t, ts.URL, "/v1/batchbin", payload, declared)
		if status != http.StatusBadRequest || !strings.Contains(string(body), want) {
			t.Fatalf("%d-byte body declared as %d bytes: %d %s, want 400 %q", len(payload), declared, status, body, want)
		}
	}
	if store.Rows() != 64 {
		t.Fatalf("store has %d rows after mis-declared bodies, want 64", store.Rows())
	}
}

// rawPost sends body to path over a bare connection under a Content-Length
// header of declared bytes, whatever the body's length, then closes its
// writing half, and returns the first response's status and body.
func rawPost(t *testing.T, url, path string, body []byte, declared int) (int, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: indepd\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		path, indep.BinContentType, declared)
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// getWindow GETs a window URL with the given Accept header and returns the
// status, the Content-Type and the raw body.
func getWindow(t *testing.T, url, accept string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

// checkExplainAnswersJSON asks for an explain=1 window accepting the binary
// encoding, requires a JSON answer carrying the plan and some rows, and
// returns the rows.
func checkExplainAnswersJSON(t *testing.T, url string) []map[string]string {
	t.Helper()
	status, ctype, data := getWindow(t, url, indep.BinContentType)
	var body struct {
		Rows    []map[string]string  `json:"rows"`
		Explain *indep.WindowExplain `json:"explain"`
	}
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") || json.Unmarshal(data, &body) != nil {
		t.Fatalf("%s: %d %q %q, want JSON", url, status, ctype, data)
	}
	if body.Explain == nil || body.Explain.Mode == "" || len(body.Rows) == 0 {
		t.Fatalf("%s: explain %+v rows %v", url, body.Explain, body.Rows)
	}
	return body.Rows
}

// TestServerWindowExplainAnswersJSON: a node asked for the plan answers
// JSON with the explain block even when the client accepts the binary
// encoding, whose layout has no room for it.
func TestServerWindowExplainAnswersJSON(t *testing.T) {
	ts, store := newTestServer(t, "CT(C,T); CS(C,S)", "C -> T")
	if err := store.Insert("CT", map[string]string{"C": "c1", "T": "t1"}); err != nil {
		t.Fatal(err)
	}
	checkExplainAnswersJSON(t, ts.URL+"/v1/window?attrs=C,T&explain=1")
}
