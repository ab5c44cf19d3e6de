// Command indep analyzes database schemas for independence in the sense of
// Graham and Yannakakis, "Independent Database Schemas" (PODS 1982).
//
// Usage:
//
//	indep analyze -schema 'CT(C,T); CS(C,S); CHR(C,H,R)' -fds 'C -> T; C H -> R'
//	indep analyze -file design.txt
//	indep closure -schema ... -fds ... -of 'C H'
//	indep acyclic -schema ...
//	indep query -schema ... -fds ... -rows data.txt -of 'C T' [-where 'C=cs101'] [-limit 10] [-explain]
//	indep load -schema ... -fds ... -rows data.txt -url http://localhost:8080 [-wire bin|json] [-batch 256]
//	indep trace -url http://localhost:8080 -recent [-min 5ms] [-route 'POST /v1/tuple'] [-limit 10]
//	indep experiments [-exp all|E1,T3,...] [-seed 1982] [-scale 0]
//
// load uploads a tuple file to a running indepd in atomic batches — over the
// length-prefixed binary protocol (POST /v1/batchbin, the default) or the
// JSON /v1/batch endpoint.
//
//	indep trace -url http://localhost:8080 -id 4bf92f3577b34da6
//
// The file format for -file has one declaration per line; lines starting
// with '#' are comments:
//
//	schema: CT(C,T); CS(C,S); CHR(C,H,R)
//	fds: C -> T; C H -> R
//
// query computes the window [X] for the -of attribute set: the X-total
// projection of the representative instance of the state in -rows —
// evaluated relation-by-relation when the schema is independent, through
// the chase otherwise. The -rows file holds one tuple per line (';' also
// separates), values positional in the relation's attribute order, '#'
// comments:
//
//	CT(cs101, jones)
//	CS(cs101, smith)
//
// trace talks to a running indepd's flight recorder (/debug/trace): -recent
// lists retained traces newest first, -id fetches one span tree by its
// 16-hex trace ID (the X-Indep-Trace response header of the request).
//
// experiments regenerates the paper-reproduction tables: the worked
// examples (E1–E3), the theorem checks against the chase oracle (T1–T3,
// C1) and the complexity shapes (P1, A1, M1). Timings vary run to run;
// every other figure is fixed by -seed and -scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"indep"
	"indep/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	switch cmd {
	case "trace": // needs a daemon URL, not a schema
		runTrace(os.Args[2:])
		return
	case "experiments": // generates its own schemas
		runExperiments(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	schemaSrc := fs.String("schema", "", "schema declaration, e.g. 'R1(A,B); R2(B,C)'")
	fdSrc := fs.String("fds", "", "functional dependencies, e.g. 'A -> B; B -> C'")
	file := fs.String("file", "", "read schema/fds from a declaration file")
	of := fs.String("of", "", "closure/query: attribute list, e.g. 'C H'")
	rows := fs.String("rows", "", "query/load: tuple file, one 'Rel(v1,v2,...)' per line")
	where := fs.String("where", "", "query: equality selections, e.g. 'C=cs101; T=jones'")
	limit := fs.Int("limit", 0, "query: cap the number of returned rows (0 = all)")
	explain := fs.Bool("explain", false, "query: print the executed plan (mode, plan cache, per-relation scans)")
	base := fs.String("url", "http://localhost:8080", "load: base URL of a running indepd")
	wire := fs.String("wire", "bin", "load: wire encoding, 'bin' (POST /v1/batchbin) or 'json' (POST /v1/batch)")
	batchSize := fs.Int("batch", 256, "load: rows per request batch")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		s, f, err := indep.ParseDeclarations(string(data))
		if err != nil {
			fatal(err)
		}
		*schemaSrc, *fdSrc = s, f
	}
	if *schemaSrc == "" {
		fatal(fmt.Errorf("missing -schema (or -file)"))
	}
	sch, err := indep.Parse(*schemaSrc, *fdSrc)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "analyze":
		a, err := sch.Analyze()
		if err != nil {
			fatal(err)
		}
		fmt.Print(a.Summary())
		if !a.Independent {
			os.Exit(1)
		}
	case "closure":
		attrs := strings.Fields(*of)
		if len(attrs) == 0 {
			fatal(fmt.Errorf("closure needs -of 'A B ...'"))
		}
		full, err := sch.Closure(attrs...)
		if err != nil {
			fatal(err)
		}
		emb, err := sch.EmbeddedClosure(attrs...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cl_Σ(%s)    = %s\n", strings.Join(attrs, " "), strings.Join(full, " "))
		fmt.Printf("cl_G|D(%s)  = %s\n", strings.Join(attrs, " "), strings.Join(emb, " "))
	case "acyclic":
		fmt.Printf("acyclic: %v\n", sch.IsAcyclic())
	case "query":
		attrs := strings.Fields(*of)
		if len(attrs) == 0 {
			fatal(fmt.Errorf("query needs -of 'A B ...'"))
		}
		db := sch.NewDatabase()
		if *rows != "" {
			if err := loadRows(sch, db, *rows); err != nil {
				fatal(err)
			}
		}
		q := indep.WindowQuery{Attrs: attrs, Limit: *limit, Explain: *explain}
		if *where != "" {
			q.Where = make(map[string]string)
			for _, cond := range strings.FieldsFunc(*where, func(r rune) bool { return r == ';' }) {
				attr, val, ok := strings.Cut(strings.TrimSpace(cond), "=")
				if !ok || strings.TrimSpace(attr) == "" {
					fatal(fmt.Errorf("bad -where condition %q (want attr=value)", cond))
				}
				attr, val = strings.TrimSpace(attr), strings.TrimSpace(val)
				if prev, dup := q.Where[attr]; dup && prev != val {
					fatal(fmt.Errorf("conflicting -where conditions for %s", attr))
				}
				q.Where[attr] = val
			}
		}
		res, err := db.Query(q)
		if err != nil {
			fatal(err)
		}
		mode := "chase (schema not independent)"
		if res.FastPath {
			mode = "relation-by-relation (independent schema, no chase)"
		}
		fmt.Printf("window [%s]: %d rows, evaluated %s\n",
			strings.Join(res.Attrs, " "), res.Total, mode)
		fmt.Println(strings.Join(res.Attrs, "\t"))
		for _, row := range res.Rows {
			vals := make([]string, len(res.Attrs))
			for i, a := range res.Attrs {
				vals[i] = row[a]
			}
			fmt.Println(strings.Join(vals, "\t"))
		}
		if res.Explain != nil {
			printExplain(res.Explain)
		}
	case "load":
		if *rows == "" {
			fatal(fmt.Errorf("load needs -rows (the tuple file to upload)"))
		}
		if err := runLoad(sch, *rows, *base, *wire, *batchSize); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

// runLoad uploads a tuple file to a running indepd in batches, over the
// binary wire protocol (-wire bin, the default: one length-prefixed
// /v1/batchbin body per batch, no JSON anywhere) or the JSON /v1/batch
// endpoint (-wire json). Batches are atomic server-side; a rejected or
// failed batch aborts the load with the server's message.
func runLoad(sch *indep.Schema, path, base, wire string, batchSize int) error {
	ops, err := parseTupleFile(sch, path)
	if err != nil {
		return err
	}
	if batchSize < 1 {
		batchSize = 1
	}
	if wire != "bin" && wire != "json" {
		return fmt.Errorf("bad -wire %q (want bin or json)", wire)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	enc := indep.NewBinBatchEncoder(sch)
	start := time.Now()
	sent := 0
	for off := 0; off < len(ops); off += batchSize {
		batch := ops[off:min(off+batchSize, len(ops))]
		var body []byte
		var u, ctype string
		if wire == "bin" {
			enc.Reset()
			for _, op := range batch {
				if err := enc.Add(op.Rel, op.Row); err != nil {
					return err
				}
			}
			body, u, ctype = enc.Bytes(), base+"/v1/batchbin", indep.BinContentType
		} else {
			type jsonOp struct {
				Relation string            `json:"relation"`
				Row      map[string]string `json:"row"`
			}
			jops := make([]jsonOp, len(batch))
			for i, op := range batch {
				jops[i] = jsonOp{Relation: op.Rel, Row: op.Row}
			}
			if body, err = json.Marshal(map[string]any{"ops": jops}); err != nil {
				return err
			}
			u, ctype = base+"/v1/batch", "application/json"
		}
		resp, err := client.Post(u, ctype, strings.NewReader(string(body)))
		if err != nil {
			return err
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: %s: %s", u, resp.Status, strings.TrimSpace(string(msg)))
		}
		sent += len(batch)
	}
	elapsed := time.Since(start)
	fmt.Printf("loaded %d rows over %s wire in %v (%.0f rows/s)\n",
		sent, wire, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	return nil
}

// printExplain renders a window query's executed plan.
func printExplain(ex *indep.WindowExplain) {
	fmt.Printf("explain:\n  mode:        %s\n  plan cached: %v\n", ex.Mode, ex.PlanCached)
	for _, rs := range ex.Relations {
		fmt.Printf("  scan:        %s (%d rows)\n", rs.Relation, rs.Rows)
	}
	if len(ex.Pruned) > 0 {
		fmt.Printf("  pruned:      %s\n", strings.Join(ex.Pruned, " "))
	}
}

// runTrace implements the trace subcommand: fetch retained traces from a
// running indepd's flight recorder and render their span trees.
func runTrace(argv []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	base := fs.String("url", "http://localhost:8080", "base URL of a running indepd")
	id := fs.String("id", "", "fetch one trace by its 16-hex ID")
	recent := fs.Bool("recent", false, "list retained traces, newest first")
	minDur := fs.Duration("min", 0, "recent: only traces at least this slow")
	route := fs.String("route", "", "recent: only traces for this route, e.g. 'POST /v1/tuple'")
	limit := fs.Int("limit", 0, "recent: cap the number of listed traces (0 = server default)")
	if err := fs.Parse(argv); err != nil {
		os.Exit(2)
	}
	switch {
	case *id != "":
		var tv indep.TraceView
		if err := fetchJSON(*base+"/debug/trace/"+url.PathEscape(*id), &tv); err != nil {
			fatal(err)
		}
		printTrace(tv)
	case *recent:
		q := url.Values{}
		if *minDur > 0 {
			q.Set("min_ms", fmt.Sprintf("%g", float64(*minDur)/float64(time.Millisecond)))
		}
		if *route != "" {
			q.Set("route", *route)
		}
		if *limit > 0 {
			q.Set("limit", fmt.Sprint(*limit))
		}
		u := *base + "/debug/trace/recent"
		if len(q) > 0 {
			u += "?" + q.Encode()
		}
		var body struct {
			Count  int               `json:"count"`
			Traces []indep.TraceView `json:"traces"`
		}
		if err := fetchJSON(u, &body); err != nil {
			fatal(err)
		}
		fmt.Printf("%d retained trace(s)\n", body.Count)
		for i, tv := range body.Traces {
			if i > 0 {
				fmt.Println()
			}
			printTrace(tv)
		}
	default:
		fatal(fmt.Errorf("trace needs -id or -recent"))
	}
}

// runExperiments implements the experiments subcommand: print the tables of
// the experiments -exp names, in the order it names them.
func runExperiments(argv []string) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	exp := fs.String("exp", "all", "comma-separated experiment ids ("+strings.Join(experiments.Order, ",")+") or 'all'")
	seed := fs.Int64("seed", 1982, "random seed")
	scale := fs.Int("scale", 0, "work scale (0 = default)")
	if err := fs.Parse(argv); err != nil {
		os.Exit(2)
	}
	out, err := experiments.Run(*exp, experiments.Params{Seed: *seed, Scale: *scale})
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

// fetchJSON GETs a URL and decodes its JSON body into out. Non-200 responses
// become errors carrying the server's message.
func fetchJSON(u string, out any) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(body))
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return fmt.Errorf("GET %s: %s (%s)", u, msg, resp.Status)
	}
	return json.Unmarshal(body, out)
}

// printTrace renders one trace as an indented span tree. Spans reference
// their parent by index, so children are grouped and walked depth-first in
// start order.
func printTrace(tv indep.TraceView) {
	fmt.Printf("trace %s  %s  status=%d  %s  kept=%s",
		tv.ID, tv.Route, tv.Status,
		time.Duration(tv.DurationNs).Round(time.Microsecond), tv.Reason)
	if tv.DroppedSpans > 0 {
		fmt.Printf("  dropped_spans=%d", tv.DroppedSpans)
	}
	fmt.Println()
	children := make([][]int, len(tv.Spans))
	roots := []int{}
	for i, sp := range tv.Spans {
		if sp.Parent >= 0 && sp.Parent < len(tv.Spans) {
			children[sp.Parent] = append(children[sp.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool { return tv.Spans[idx[a]].StartNs < tv.Spans[idx[b]].StartNs })
	}
	var walk func(i, depth int)
	walk = func(i, depth int) {
		sp := tv.Spans[i]
		attrs := make([]string, len(sp.Attrs))
		for j, a := range sp.Attrs {
			attrs[j] = fmt.Sprintf("%s=%v", a.Key, a.Value)
		}
		line := fmt.Sprintf("%s%s  %s", strings.Repeat("  ", depth+1), sp.Name,
			time.Duration(sp.DurationNs).Round(time.Microsecond))
		if len(attrs) > 0 {
			line += "  {" + strings.Join(attrs, " ") + "}"
		}
		fmt.Println(line)
		kids := children[i]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	byStart(roots)
	for _, r := range roots {
		walk(r, 0)
	}
}

// parseTupleFile reads a tuple file into batch ops: one 'Rel(v1,v2,...)' per
// line (';' also separates tuples), values positional in the relation's
// attribute order, '#' starting a comment line.
func parseTupleFile(sch *indep.Schema, path string) ([]indep.BatchOp, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ops []indep.BatchOp
	for _, line := range strings.FieldsFunc(string(data), func(r rune) bool { return r == '\n' || r == ';' }) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		open := strings.IndexByte(line, '(')
		close := strings.LastIndexByte(line, ')')
		if open <= 0 || close != len(line)-1 {
			return nil, fmt.Errorf("indep: cannot parse tuple %q (want Rel(v1,v2,...))", line)
		}
		rel := strings.TrimSpace(line[:open])
		attrs, err := sch.RelationAttrs(rel)
		if err != nil {
			return nil, err
		}
		vals := strings.Split(line[open+1:close], ",")
		if len(vals) != len(attrs) {
			return nil, fmt.Errorf("indep: tuple %q has %d values, %s has %d attributes",
				line, len(vals), rel, len(attrs))
		}
		row := make(map[string]string, len(attrs))
		for i, a := range attrs {
			row[a] = strings.TrimSpace(vals[i])
		}
		ops = append(ops, indep.BatchOp{Rel: rel, Row: row})
	}
	return ops, nil
}

// loadRows reads a tuple file into the database (see parseTupleFile for the
// format).
func loadRows(sch *indep.Schema, db *indep.Database, path string) error {
	ops, err := parseTupleFile(sch, path)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if err := db.Insert(op.Rel, op.Row); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "indep:", err)
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  indep analyze -schema '...' -fds '...'   decide independence, print witness
  indep analyze -file design.txt
  indep closure -schema '...' -fds '...' -of 'A B'
  indep acyclic -schema '...'
  indep query -schema '...' -fds '...' -rows data.txt -of 'A B' [-where 'A=v'] [-limit n] [-explain]
  indep load -schema '...' -fds '...' -rows data.txt -url http://host:8080 [-wire bin|json] [-batch n]
  indep trace -url http://host:8080 -recent [-min 5ms] [-route 'POST /v1/tuple'] [-limit n]
  indep trace -url http://host:8080 -id <16-hex trace id>
  indep experiments [-exp all|E1,T3,...] [-seed 1982] [-scale 0]`)
	os.Exit(2)
}
