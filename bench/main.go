// Command bench is the repository's committed benchmark: it builds
// cmd/indepd, starts real indepd processes, drives them over HTTP from this
// one process with at most nproc connections, checks every answer, and
// prints each metric by name with its unit. See README.md.
//
// The driver's contract (BENCHMARK.json):
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload once and prints one JSON object as the last line of
// standard output. Without --workload it runs the full set — the four
// workloads untraced, then each traced — and prints the whole report;
// -repeat 2 does that twice and compares the two, -compare does the same
// for two saved reports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// envRecord says where and how the numbers were taken; it heads every
// report so a 2-core sandbox figure is never read as anything else.
type envRecord struct {
	HostCores  int     `json:"hostCores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Fsync      string  `json:"fsync"`
	DataDirFS  string  `json:"dataDirFilesystem"`
	Clients    int     `json:"clients"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
}

func newEnvRecord(e *env, cfg config) envRecord {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envRecord{
		HostCores:  runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Fsync:      "on (indepd default: one fsync per commit group) for -data daemons; in-memory daemons have no log",
		DataDirFS:  fsType(e.scratch),
		Clients:    cfg.clients,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Commit:     commit,
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "run one workload (ingest, readonly, mixed, routed) and print the driver's JSON line; empty runs the full set")
	seed := flag.Uint64("seed", 1, "generator seed: the same seed gives the same inputs")
	secs := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: end-to-end metrics, tracing off")
	clients := flag.Int("clients", 2, "closed-loop clients; also the cap on client connections, refused above nproc")
	root := flag.String("root", ".", "repository root")
	port := flag.Int("port", 18470, "first daemon port; a run uses a few ports upward from it")
	repeat := flag.Int("repeat", 1, "full set only: run the set this many times and compare the first two")
	out := flag.String("out", "", "full set only: also write the report as JSON to this file")
	flag.StringVar(&spansPath, "spans", "", "traced runs: write the recorded spans to this file as JSON lines")
	compare := flag.Bool("compare", false, "compare two saved reports: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *clients < 1 || *clients > maxClients {
		fmt.Fprintf(os.Stderr, "bench: -clients must be between 1 and %d\n", maxClients)
		return 2
	}
	if *clients > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: %d client connections asked for but the host has %d cores; the clients would be measuring each other\n",
			*clients, runtime.NumCPU())
		return 2
	}
	if *workload != "" && !isWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	e, err := newEnv(*root, *port)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Children and scratch go away on every exit path: normal return,
	// error, or a signal (the daemons additionally carry Pdeathsig).
	defer e.close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{seed: *seed, seconds: *secs, clients: *clients}
	if *workload != "" {
		res, err := runOne(ctx, e, cfg, *workload, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printEnv(newEnvRecord(e, cfg))
		printResult(res)
		printDriverLine(res)
		if res.Failed > 0 {
			return 1
		}
		return 0
	}
	return fullSet(ctx, e, cfg, *repeat, *out)
}

// runOne runs one workload, traced or not.
func runOne(ctx context.Context, e *env, cfg config, workload string, trace bool) (*result, error) {
	r, err := newRun(e, cfg, workload, trace)
	if err != nil {
		return nil, err
	}
	if trace {
		err = r.runTraced(ctx)
	} else {
		err = r.runWorkload(ctx)
	}
	r.steal.close()
	e.killAll() // a run leaves no daemon behind, whether it succeeded or not
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", workload, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.res, nil
}

func printEnv(rec envRecord) {
	b, _ := json.Marshal(rec)
	fmt.Printf("env %s\n", b)
}

// printResult lists a run's metrics by name with unit and sample count.
func printResult(res *result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Printf("workload %s (%s): attempted %d, failed %d\n", res.Workload, mode, res.Attempted, res.Failed)
	for _, note := range res.Notes {
		fmt.Printf("  failure: %s\n", note)
	}
	for _, name := range sortedNames(res.Metrics) {
		v := res.Metrics[name]
		if v.N > 0 {
			fmt.Printf("  %-42s %14.4f %-6s n=%d\n", name, v.V, v.Unit, v.N)
		} else {
			fmt.Printf("  %-42s %14.4f %s\n", name, v.V, v.Unit)
		}
	}
}

// printDriverLine prints the driver's JSON object: exactly the end-to-end
// metrics for an untraced run, exactly the per-layer metrics for a traced
// one. A metric the run could not produce is an error, not a zero.
func printDriverLine(res *result) {
	list := endToEnd
	if res.Trace {
		list = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(list))
	correct := res.Failed == 0
	for _, m := range list {
		v, ok := res.Metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %s did not produce %s\n", res.Workload, m.name)
			correct = false
		}
		metrics[m.name] = mv{Value: v.V, Unit: m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
}
