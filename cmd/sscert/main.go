// Command sscert is the adversarial certification harness's CLI: it
// hunts for counterexamples to the reproduction's headline claims and
// emits machine-readable certificates CI can diff against committed
// bounds.
//
// Exhaustive model checking (every connected graph up to isomorphism on
// ≤ maxn nodes, plus the named pathological families, × five algorithms
// × seven daemons × sampled and exhaustive initial configurations):
//
//	sscert -exhaustive -maxn 6
//
// Live-topology churn certification (seeded join/leave/partition/heal
// schedules × five algorithms × seven daemons on small graphs, with a
// packet cohort flying over the incrementally maintained labeling;
// every run must re-stabilize to a spec-correct tree of the final
// graph):
//
//	sscert -churn -churn-maxn 6
//
// Message-passing cluster certification (seeded loss/dup/reorder/
// corruption fault profiles on the deterministic channel transport ×
// five algorithms on small graphs; every run must reach quiet, project
// to a silent spec-correct configuration, and serve a packet batch
// end-to-end over the same transport):
//
//	sscert -cluster -cluster-maxn 6
//
// Add -cluster-churn N to inject N membership-churn operations (joins,
// leaves, crashes, link flaps) into every cluster run mid-flight; the
// post-quiet battery then certifies the final graph:
//
//	sscert -cluster -cluster-maxn 6 -cluster-churn 8
//
// Chaos campaign (fault bursts + register wipes + weight churn + live
// traffic over the recovering tree on a large random graph):
//
//	sscert -chaos -n 10000 -substrate bfs -sched greedy-stretch \
//	       -out chaos-cert.json -bounds internal/cert/testdata/chaos_bounds.json
//
// Exit status is nonzero when a counterexample is found or a bound is
// violated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"silentspan/internal/bench"
	"silentspan/internal/cert"
)

func main() {
	var (
		exhaustive = flag.Bool("exhaustive", false, "run the exhaustive small-graph model checker")
		maxn       = flag.Int("maxn", 5, "model-check every connected graph on up to this many nodes")
		samples    = flag.Int("samples", 3, "arbitrary-init samples per (graph, algorithm, daemon)")
		exhinit    = flag.Int("exhinit", 3, "exhaustive initial-state enumeration up to this n (spanning substrate)")
		families   = flag.Bool("families", true, "include the named pathological families (paths, stars, lollipops, dumbbells)")

		churn     = flag.Bool("churn", false, "run the live-topology churn certification campaign")
		churnMaxN = flag.Int("churn-maxn", 6, "churn graphs on 3..this many nodes")
		schedules = flag.Int("schedules", 2, "churn schedules per (graph, algorithm, daemon)")
		churnLen  = flag.Int("churn-len", 10, "churn ops per schedule")

		clusterRun   = flag.Bool("cluster", false, "run the message-passing cluster certification campaign")
		clusterMaxN  = flag.Int("cluster-maxn", 6, "cluster graphs on 3..this many nodes")
		clusterRuns  = flag.Int("cluster-runs", 1, "cluster runs per (graph, algorithm, fault profile)")
		clusterChurn = flag.Int("cluster-churn", 0, "membership-churn ops (join/leave/crash/link flap) injected per cluster run; 0 disables")

		chaos     = flag.Bool("chaos", false, "run a randomized chaos campaign")
		n         = flag.Int("n", 10000, "chaos graph size")
		p         = flag.Float64("p", 0, "chaos edge probability (default 3/n)")
		substrate = flag.String("substrate", "bfs", "chaos substrate: bfs|mst|mdst")
		sched     = flag.String("sched", "random-subset", "chaos daemon (central|synchronous|round-robin|adversarial-unfair|greedy-stretch|random-central|random-subset)")
		bursts    = flag.Int("bursts", 5, "chaos fault bursts")

		seed   = flag.Int64("seed", 1, "base random seed")
		out    = flag.String("out", "", "write the certificate JSON here")
		bounds = flag.String("bounds", "", "diff the chaos certificate against this committed bounds file")
		quiet  = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()
	if !*exhaustive && !*chaos && !*churn && !*clusterRun {
		fmt.Fprintln(os.Stderr, "sscert: nothing to do; pass -exhaustive, -churn, -cluster and/or -chaos")
		flag.Usage()
		os.Exit(2)
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// The combined certificate file: either section may be absent. Both
	// runners return whatever partial report they built alongside an
	// error, and the write below happens on every path — a failed
	// campaign is exactly when the per-burst records matter most.
	var file struct {
		Exhaustive *cert.ExhaustiveReport `json:"exhaustive,omitempty"`
		Churn      *cert.ChurnReport      `json:"churn,omitempty"`
		Cluster    *cert.ClusterReport    `json:"cluster,omitempty"`
		Chaos      *cert.Certificate      `json:"chaos,omitempty"`
	}
	failed := false

	// verdict prints the outcome of a ledger campaign (its table is
	// already out) and records failure; it reports whether the campaign
	// certified cleanly.
	verdict := func(name string, err error, l *cert.Ledger, certified string) bool {
		if err != nil {
			fmt.Fprintf(os.Stderr, "sscert: %s: %v\n", name, err)
		}
		if !l.Certified() {
			fmt.Printf("FALSIFIED: %d counterexamples\n", len(l.Counterexamples))
		} else if err == nil {
			fmt.Printf("CERTIFIED: %s, zero counterexamples\n", certified)
			return true
		}
		failed = true
		return false
	}

	if *exhaustive {
		rep, err := cert.RunExhaustive(cert.ExhaustiveConfig{
			MaxN:               *maxn,
			Samples:            *samples,
			ExhaustiveInitMaxN: *exhinit,
			SkipFamilies:       !*families,
			Seed:               *seed,
		}, logf)
		file.Exhaustive = rep
		bench.ExhaustiveTable(rep).Fprint(os.Stdout)
		verdict("exhaustive", err, &rep.Ledger, fmt.Sprintf("%d graphs, %d runs, %d exhaustive inits",
			rep.Graphs, rep.Runs, rep.ExhaustiveInits))
	}

	if *churn {
		rep, err := cert.RunChurn(cert.ChurnConfig{
			MaxN:      *churnMaxN,
			Schedules: *schedules,
			Length:    *churnLen,
			Seed:      *seed,
		}, logf)
		file.Churn = rep
		bench.ChurnTable(rep).Fprint(os.Stdout)
		verdict("churn", err, &rep.Ledger, fmt.Sprintf("%d graphs, %d runs, %d mutations, cohort %d/%d",
			rep.Graphs, rep.Runs, rep.Mutations, rep.PacketsArrived, rep.PacketsSent))
	}

	if *clusterRun {
		rep, err := cert.RunCluster(cert.ClusterConfig{
			MaxN:     *clusterMaxN,
			Runs:     *clusterRuns,
			ChurnOps: *clusterChurn,
			Seed:     *seed,
		}, logf)
		file.Cluster = rep
		bench.ClusterTable(rep).Fprint(os.Stdout)
		if verdict("cluster", err, &rep.Ledger, fmt.Sprintf("%d graphs, %d runs, %d frames, packets %d/%d",
			rep.Graphs, rep.Runs, rep.FramesSent, rep.PacketsArrived, rep.PacketsSent)) && *clusterChurn > 0 {
			fmt.Printf("  churn: %d joins, %d leaves, %d crashes survived\n", rep.Joins, rep.Leaves, rep.Crashes)
		}
	}

	if *chaos {
		c, err := cert.RunChaos(cert.ChaosConfig{
			N: *n, EdgeProb: *p,
			Substrate: *substrate,
			Scheduler: *sched,
			Bursts:    *bursts,
			Seed:      *seed,
		}, logf)
		file.Chaos = c
		if err != nil {
			fmt.Fprintf(os.Stderr, "sscert: chaos: %v\n", err)
			failed = true
		}
		if c != nil {
			bench.ChaosTable(c).Fprint(os.Stdout)
			if *bounds != "" && err == nil {
				b, berr := cert.LoadBounds(*bounds)
				if berr != nil {
					fmt.Fprintf(os.Stderr, "sscert: %v\n", berr)
					os.Exit(1)
				}
				if violations := b.Check(c); len(violations) > 0 {
					for _, v := range violations {
						fmt.Printf("BOUND VIOLATED: %s\n", v)
					}
					failed = true
				} else {
					fmt.Println("WITHIN BOUNDS: certificate fits the committed envelope")
				}
			}
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sscert: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sscert: %v\n", err)
			os.Exit(1)
		}
		logf("certificate written to %s", *out)
	}
	if failed {
		os.Exit(1)
	}
}
