package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// report is one full set of runs, as -out saves it and -compare reads it.
type report struct {
	Env  envRecord `json:"env"`
	Runs []*result `json:"runs"`
}

// fullSet runs the four workloads untraced, then each traced, `repeat`
// times over, printing every metric of every run. With two or more sets it
// ends with the comparison of the first two. The exit code is non-zero if
// any operation failed or any end-to-end metric moved by more than its
// bound between the two sets.
func fullSet(ctx context.Context, e *env, cfg config, repeat int, out string) int {
	rec := newEnvRecord(e, cfg)
	printEnv(rec)
	var reports []*report
	code := 0
	for i := 0; i < max(repeat, 1); i++ {
		rep := &report{Env: rec}
		for _, trace := range []bool{false, true} {
			for _, w := range workloads {
				res, err := runOne(ctx, e, cfg, w.name, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				printResult(res)
				if res.Failed > 0 {
					code = 1
				}
				rep.Runs = append(rep.Runs, res)
			}
		}
		reports = append(reports, rep)
	}
	if out != "" {
		data, err := json.MarshalIndent(reports, "", " ")
		if err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if len(reports) >= 2 && !compareReports(reports[0], reports[1]) {
		code = 1
	}
	return code
}

// compareFiles compares the first set of each of two saved reports.
func compareFiles(a, b string) int {
	load := func(path string) (*report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var reps []*report
		if err := json.Unmarshal(data, &reps); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("%s: no runs", path)
		}
		return reps[0], nil
	}
	ra, err := load(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rb, err := load(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !compareReports(ra, rb) {
		return 1
	}
	return 0
}

// worsening is the share of a by which b is worse, negative when b is
// better, in the metric's own direction.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, per metric and workload, both values, how much
// worse the second is, and the bound. It reports whether every bounded
// metric stayed within its bound in both directions: between two sets of
// the same code a move either way means the metric does not repeat.
func compareReports(a, b *report) bool {
	find := func(rep *report, workload string, trace bool) *result {
		for _, r := range rep.Runs {
			if r.Workload == workload && r.Trace == trace {
				return r
			}
		}
		return nil
	}
	ok := true
	fmt.Printf("\n%-11s %-42s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			ra, rb := find(a, w.name, trace), find(b, w.name, trace)
			if ra == nil || rb == nil {
				continue
			}
			for _, name := range sortedNames(ra.Metrics) {
				va, vb := ra.Metrics[name], rb.Metrics[name]
				m, known := findMetric(name)
				if _, both := rb.Metrics[name]; !both || !known {
					continue
				}
				d := worsening(m, va.V, vb.V)
				line := fmt.Sprintf("%-11s %-42s %14.4f %14.4f %+8.1f%%", w.name, name, va.V, vb.V, 100*d)
				if m.bound > 0 {
					line += fmt.Sprintf(" %6.0f%%", 100*m.bound)
					if d > m.bound || d < -m.bound {
						line += "  EXCEEDS"
						ok = false
					}
				}
				fmt.Println(line)
			}
		}
	}
	return ok
}
