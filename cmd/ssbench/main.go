// Command ssbench regenerates every experiment table of the
// reproduction (E1–E12 plus the A-series ablations, see DESIGN.md §5):
// one table per claim-level figure of the paper, plus the routing
// serving-layer measurements (E9/E10/A5), the engine scale table
// (E11), and the live-topology churn throughput table (E12). The
// message-passing cluster is measured by the benchmark/ harness.
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

func main() {
	quick := flag.Bool("quick", false, "smaller sweeps (seconds instead of minutes)")
	seed := flag.Int64("seed", 1, "base random seed")
	only := flag.String("only", "", "run a single experiment (E1..E12, A1..A5)")
	flag.Parse()

	type experiment struct {
		name string
		run  func() (*bench.Table, error)
	}

	e1n := []int{16, 32, 64, 128, 256}
	e2n := []int{16, 32, 64, 128, 256, 512}
	e3n := []int{16, 24, 32, 48, 64}
	e4n := []int{10, 14, 18, 24}
	e5n := []int{8, 12, 16, 20}
	e6n := []int{5, 6, 7, 8}
	e7f := []int{1, 2, 4, 8, 16}
	e7n, e8n := 32, 16
	a1n := []int{16, 32, 64}
	e9n := []int{100, 1000, 10000}
	e9pkts := 100_000
	a5n := []int{100, 1000}
	a5pkts := 20_000
	e10n, e10f := 32, 4
	e11n := []int{100_000, 300_000, 1_000_000}
	e11pkts := 50_000
	e12n := []int{100_000, 300_000}
	e12muts, e12batch, e12pkts := 30_000, 200, 10_000
	if *quick {
		a1n = []int{12, 24}
		e1n = []int{16, 32, 64}
		e2n = []int{16, 64, 256}
		e3n = []int{12, 20, 28}
		e4n = []int{10, 14}
		e5n = []int{8, 12}
		e6n = []int{5, 6, 7}
		e7f = []int{1, 2, 4}
		e7n, e8n = 20, 14
		e9n = []int{100, 1000}
		e9pkts = 10_000
		a5n = []int{100}
		a5pkts = 5_000
		e10n = 24
		e11n = []int{100_000}
		e11pkts = 10_000
		e12n = []int{100_000}
		e12muts, e12pkts = 10_000, 5_000
	}

	experiments := []experiment{
		{"E1", func() (*bench.Table, error) { return bench.E1Switch(e1n, *seed) }},
		{"E2", func() (*bench.Table, error) { return bench.E2NCA(e2n, *seed) }},
		{"E3", func() (*bench.Table, error) { return bench.E3BFS(e3n, *seed) }},
		{"E4", func() (*bench.Table, error) { return bench.E4MST(e4n, *seed) }},
		{"E5", func() (*bench.Table, error) { return bench.E5MDST(e5n, *seed) }},
		{"E6", func() (*bench.Table, error) { return bench.E6Verification(e6n, *seed) }},
		{"E7", func() (*bench.Table, error) { return bench.E7FaultRecovery(e7n, e7f, *seed) }},
		{"E8", func() (*bench.Table, error) { return bench.E8Potential(e8n, *seed) }},
		{"E9", func() (*bench.Table, error) { return bench.E9Routing(e9n, e9pkts, *seed) }},
		{"E10", func() (*bench.Table, error) { return bench.E10Interplay(e10n, e10f, *seed) }},
		{"E11", func() (*bench.Table, error) { return bench.E11Scale(e11n, e11pkts, *seed) }},
		{"E12", func() (*bench.Table, error) { return bench.E12Churn(e12n, e12muts, e12batch, e12pkts, *seed) }},
		{"A1", func() (*bench.Table, error) { return bench.A1Malleability(a1n, *seed) }},
		{"A2", func() (*bench.Table, error) { return bench.A2NCAEncoding(e2n, *seed) }},
		{"A3", func() (*bench.Table, error) { return bench.A3Schedulers(e8n, *seed) }},
		{"A4", func() (*bench.Table, error) { return bench.A4Families(*seed) }},
		{"A5", func() (*bench.Table, error) { return bench.A5Shortcut(a5n, a5pkts, *seed) }},
	}

	failed := false
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(*only, e.name) {
			continue
		}
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
