package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// aaRuns is how many times each side of the self-comparison runs each
// workload.
const aaRuns = 3

// noiseRow is one (workload, metric) line of the self-comparison.
type noiseRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	// Worse is how much worse side B's median reads than side A's, as a
	// share of A's, in the metric's own direction.
	Worse float64 `json:"b_worse_by"`
	// Spread is the inter-quartile distance of all runs of both sides
	// as a share of their median: the noise floor next to the bound.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	OK     bool    `json:"within_bound"`
}

// worseBy returns how much worse b is than a as a share of a.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCompare runs the whole suite as two sides, A and B, of identical
// code, alternating which side goes first and the order of the
// workloads, and reports per (metric, workload) both medians, the
// spread and the bound. It returns the process exit code: non-zero if a
// pair disagrees by more than its bound or a gate failed. The rows are
// stored in noise_floor.json, the measured noise floor that
// BENCHMARK.json's bounds were set against.
func selfCompare(seed int64, seconds float64, env environment) int {
	values := map[string]map[string][2][]float64{} // workload → metric → side → runs
	code := 0
	for i := 0; i < aaRuns; i++ {
		for side := 0; side < 2; side++ {
			s := side
			if i%2 == 1 {
				s = 1 - side
			}
			for k := range workloads {
				w := workloads[k]
				if s == 1 {
					w = workloads[len(workloads)-1-k]
				}
				res, err := execute(w.Name, seed, seconds, false, env)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				fmt.Printf("aa: round %d side %c %-18s wall=%.1fs correct=%v\n", i, 'A'+s, w.Name, res.WallS, res.Correct)
				if !res.Correct {
					res.print()
					code = 1
				}
				if values[w.Name] == nil {
					values[w.Name] = map[string][2][]float64{}
				}
				for name, m := range res.Metrics {
					v := values[w.Name][name]
					v[s] = append(v[s], m.Value)
					values[w.Name][name] = v
				}
			}
		}
	}
	var rows []noiseRow
	fmt.Printf("\n%-18s %-26s %14s %14s %9s %8s %6s\n", "workload", "metric", "median A", "median B", "B worse", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w.Name][d.Name]
			a, b := median(v[0]), median(v[1])
			row := noiseRow{Workload: w.Name, Metric: d.Name, Unit: d.Unit, MedianA: a, MedianB: b,
				Worse: worseBy(a, b, d.Better), Spread: spread(append(append([]float64(nil), v[0]...), v[1]...)), Bound: d.Bound}
			// A/A: neither side may read worse than the other by more than the bound.
			row.OK = row.Worse <= d.Bound && worseBy(b, a, d.Better) <= d.Bound
			flag := ""
			if !row.OK {
				flag, code = "  OUTSIDE BOUND", 1
			}
			fmt.Printf("%-18s %-26s %14.6g %14.6g %8.1f%% %7.1f%% %5.0f%%%s\n",
				w.Name, d.Name, a, b, 100*row.Worse, 100*row.Spread, 100*d.Bound, flag)
			rows = append(rows, row)
		}
	}
	data, _ := json.MarshalIndent(struct {
		Seed    int64       `json:"seed"`
		Seconds float64     `json:"seconds"`
		Runs    int         `json:"runs_per_side"`
		Env     environment `json:"env"`
		Rows    []noiseRow  `json:"rows"`
	}{seed, seconds, aaRuns, env, rows}, "", "  ")
	if err := os.WriteFile("noise_floor.json", data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return code
}
