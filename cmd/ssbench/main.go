// Command ssbench prints the paper's report (DESIGN.md §5): one table
// per claim (E1–E8) and per ablation of a design choice (A1–A5). Speed
// is recorded by the benchmark/ harness, not here.
//
// Usage:
//
//	ssbench [-quick] [-seed N] [-only E4]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"silentspan/internal/bench"
)

type experiment struct {
	name string
	run  func() (*bench.Table, error)
}

// experiments is the report in print order, at the full or the -quick
// sweep sizes.
func experiments(quick bool, seed int64) []experiment {
	e1n := []int{16, 32, 64, 128, 256}
	e2n := []int{16, 32, 64, 128, 256, 512}
	e3n := []int{16, 24, 32, 48, 64}
	e4n := []int{10, 14, 18, 24}
	e5n := []int{8, 12, 16, 20}
	e6n := []int{5, 6, 7, 8}
	e7f := []int{1, 2, 4, 8, 16}
	e7n, e8n := 32, 16
	a1n := []int{16, 32, 64}
	a5n := []int{100, 1000}
	a5pkts := 20_000
	if quick {
		a1n = []int{12, 24}
		e1n = []int{16, 32, 64}
		e2n = []int{16, 64, 256}
		e3n = []int{12, 20, 28}
		e4n = []int{10, 14}
		e5n = []int{8, 12}
		e6n = []int{5, 6, 7}
		e7f = []int{1, 2, 4}
		e7n, e8n = 20, 14
		a5n = []int{100}
		a5pkts = 5_000
	}

	return []experiment{
		{"E1", func() (*bench.Table, error) { return bench.E1Switch(e1n, seed) }},
		{"E2", func() (*bench.Table, error) { return bench.E2NCA(e2n, seed) }},
		{"E3", func() (*bench.Table, error) { return bench.E3BFS(e3n, seed) }},
		{"E4", func() (*bench.Table, error) { return bench.E4MST(e4n, seed) }},
		{"E5", func() (*bench.Table, error) { return bench.E5MDST(e5n, seed) }},
		{"E6", func() (*bench.Table, error) { return bench.E6Verification(e6n, seed) }},
		{"E7", func() (*bench.Table, error) { return bench.E7FaultRecovery(e7n, e7f, seed) }},
		{"E8", func() (*bench.Table, error) { return bench.E8Potential(e8n, seed) }},
		{"A1", func() (*bench.Table, error) { return bench.A1Malleability(a1n, seed) }},
		{"A2", func() (*bench.Table, error) { return bench.A2NCAEncoding(e2n, seed) }},
		{"A3", func() (*bench.Table, error) { return bench.A3Schedulers(e8n, seed) }},
		{"A4", func() (*bench.Table, error) { return bench.A4Families(seed) }},
		{"A5", func() (*bench.Table, error) { return bench.A5Shortcut(a5n, a5pkts, seed) }},
	}
}

// pick returns what -only selects: every experiment for "", else the one
// named (in any case), else an error listing the valid names.
func pick(all []experiment, only string) ([]experiment, error) {
	if only == "" {
		return all, nil
	}
	names := make([]string, len(all))
	for i, e := range all {
		if strings.EqualFold(only, e.name) {
			return all[i : i+1], nil
		}
		names[i] = e.name
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s)", only, strings.Join(names, " "))
}

func main() {
	quick := flag.Bool("quick", false, "smaller sweeps (seconds instead of minutes)")
	seed := flag.Int64("seed", 1, "base random seed")
	only := flag.String("only", "", "run a single experiment (E1..E8, A1..A5)")
	flag.Parse()

	run, err := pick(experiments(*quick, *seed), *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssbench:", err)
		os.Exit(2)
	}
	failed := false
	for _, e := range run {
		tb, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			failed = true
			continue
		}
		tb.Fprint(os.Stdout)
	}
	if failed {
		os.Exit(1)
	}
}
