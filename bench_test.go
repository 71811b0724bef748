package silentspan_test

// One benchmark per experiment table (E1–E8, DESIGN.md §5), plus
// micro-benchmarks for the primitives. The experiment benchmarks wrap
// the same harness functions cmd/ssbench prints, at bench-friendly
// sizes, and report the paper's quantities (rounds, register bits) as
// custom metrics next to ns/op.

import (
	"math/rand"
	goruntime "runtime"
	"strconv"
	"testing"

	"silentspan/internal/bench"
	"silentspan/internal/bfs"
	"silentspan/internal/cluster"
	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/mst"
	"silentspan/internal/nca"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

func BenchmarkE1SwitchRounds(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				tb, err := bench.E1Switch([]int{n}, 1)
				if err != nil {
					b.Fatal(err)
				}
				rounds, _ = strconv.Atoi(tb.Rows[0][1])
			}
			b.ReportMetric(float64(rounds), "rounds/switch")
		})
	}
}

func BenchmarkE2NCALabels(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := graph.RandomConnected(n, 0.05, rng)
			tr, err := trees.RandomSpanningTree(g, g.MinID(), rng)
			if err != nil {
				b.Fatal(err)
			}
			var bits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lb, err := nca.Build(tr)
				if err != nil {
					b.Fatal(err)
				}
				bits = lb.MaxLabelBits()
			}
			b.ReportMetric(float64(bits), "label-bits")
		})
	}
}

func BenchmarkE3BFS(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			var rounds, bits float64
			for i := 0; i < b.N; i++ {
				tb, err := bench.E3BFS([]int{n}, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				r, _ := strconv.Atoi(tb.Rows[0][1])
				bt, _ := strconv.Atoi(tb.Rows[0][3])
				rounds, bits = float64(r), float64(bt)
			}
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(bits, "register-bits")
		})
	}
}

func BenchmarkE4MST(b *testing.B) {
	for _, n := range []int{10, 16, 22} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			var rounds, bits float64
			for i := 0; i < b.N; i++ {
				tb, err := bench.E4MST([]int{n}, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				r, _ := strconv.Atoi(tb.Rows[0][1])
				bt, _ := strconv.Atoi(tb.Rows[0][3])
				rounds, bits = float64(r), float64(bt)
			}
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(bits, "label-bits")
		})
	}
}

func BenchmarkE5MDST(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			var rounds, bits float64
			for i := 0; i < b.N; i++ {
				tb, err := bench.E5MDST([]int{n}, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				r, _ := strconv.Atoi(tb.Rows[0][1])
				bt, _ := strconv.Atoi(tb.Rows[0][6])
				rounds, bits = float64(r), float64(bt)
			}
			b.ReportMetric(rounds, "rounds")
			b.ReportMetric(bits, "label-bits")
		})
	}
}

func BenchmarkE6Verification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E6Verification([]int{6, 7}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7FaultRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E7FaultRecovery(24, []int{1, 4}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8Potential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E8Potential(14, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9Routing(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			var stretch float64
			for i := 0; i < b.N; i++ {
				tb, err := bench.E9Routing([]int{n}, 20_000, 1)
				if err != nil {
					b.Fatal(err)
				}
				stretch, _ = strconv.ParseFloat(tb.Rows[0][6], 64)
			}
			b.ReportMetric(stretch, "mean-stretch")
		})
	}
}

func BenchmarkE10Interplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E10Interplay(24, 3, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks for the primitives behind the tables. ---

func BenchmarkRouteForwarding(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomConnected(4096, 0.002, rng)
	tr, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		b.Fatal(err)
	}
	r := routing.NewRouter(g, routing.Label(tr), routing.Options{})
	pairs := routing.UniformPairs(g.Nodes(), 4096, rng)
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		d := r.Route(p.Src, p.Dst)
		if !d.Delivered {
			b.Fatalf("%d -> %d dropped: %v", p.Src, p.Dst, d.Reason)
		}
		hops += d.Hops
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/packet")
}

func BenchmarkCoordLabeling(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := graph.RandomConnected(8192, 0.001, rng)
	tr, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bits int
	for i := 0; i < b.N; i++ {
		bits = routing.Label(tr).MaxLabelBits()
	}
	b.ReportMetric(float64(bits), "max-label-bits")
}

func BenchmarkNCAQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(256, 0.05, rng)
	tr, err := trees.RandomSpanningTree(g, g.MinID(), rng)
	if err != nil {
		b.Fatal(err)
	}
	lb, err := nca.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	nodes := tr.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := nodes[i%len(nodes)]
		v := nodes[(i*7+3)%len(nodes)]
		if _, err := nca.NCA(lb.Label(u), lb.Label(v)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKruskal(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(512, 0.02, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mst.Kruskal(g, g.MinID()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoruvkaTrace(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(128, 0.05, rng)
	tr, err := trees.RandomSpanningTree(g, g.MinID(), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mst.ComputeTrace(g, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFurerRaghavachari(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomConnected(48, 0.15, rng)
	t0, err := trees.RandomSpanningTree(g, g.MinID(), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mdst.FurerRaghavachari(g, t0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateStabilization(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(64, 0.08, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := runtime.NewNetwork(g, switching.Algorithm{})
		if err != nil {
			b.Fatal(err)
		}
		net.InitArbitrary(rand.New(rand.NewSource(int64(i))))
		res, err := net.Run(runtime.Central(), 5_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Silent {
			b.Fatal("not silent")
		}
	}
}

func BenchmarkAlwaysOnBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomConnected(48, 0.1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := runtime.NewNetwork(g, bfs.Algorithm{})
		if err != nil {
			b.Fatal(err)
		}
		net.InitArbitrary(rand.New(rand.NewSource(int64(i))))
		res, err := net.Run(runtime.Central(), 5_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Silent {
			b.Fatal("not silent")
		}
	}
}

func BenchmarkSequentialEngineMST(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(64, 0.08, rng)
	t0, err := trees.RandomSpanningTree(g, g.MinID(), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.RunSequential(g, t0, mst.Task{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBFSStabilization measures raw engine throughput on the
// serving-scale path: the spanning (BFS) substrate from the post-reset
// configuration to silence under the synchronous daemon. It isolates
// the simulation engine (view building, enabled-set maintenance,
// scheduler hand-off) from algorithmic round counts.
func BenchmarkEngineBFSStabilization(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := graph.RandomConnected(n, 8/float64(n), rng)
			g.Dense() // build the index snapshot with the rest of the fixture
			b.ResetTimer()
			var moves int
			for i := 0; i < b.N; i++ {
				net, err := runtime.NewNetwork(g, spanning.Algorithm{})
				if err != nil {
					b.Fatal(err)
				}
				spanning.InitSelfRoot(net)
				res, err := net.Run(runtime.Synchronous(), 200_000_000)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Silent {
					b.Fatal("not silent")
				}
				moves = res.Moves
			}
			b.ReportMetric(float64(moves), "moves")
		})
	}
}

// BenchmarkEngineBFSCentral is the central-daemon variant: one node per
// activation, so any per-activation work that scans all nodes turns the
// run quadratic. It is the benchmark that the incremental enabled-set
// exists for.
func BenchmarkEngineBFSCentral(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := graph.RandomConnected(n, 8/float64(n), rng)
			g.Dense() // build the index snapshot with the rest of the fixture
			b.ResetTimer()
			var moves int
			for i := 0; i < b.N; i++ {
				net, err := runtime.NewNetwork(g, spanning.Algorithm{})
				if err != nil {
					b.Fatal(err)
				}
				spanning.InitSelfRoot(net)
				res, err := net.Run(runtime.Central(), 200_000_000)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Silent {
					b.Fatal("not silent")
				}
				moves = res.Moves
			}
			b.ReportMetric(float64(moves), "moves")
		})
	}
}

// BenchmarkScaleBFSRouting is the 100k-node serving-scale run: stabilize
// the BFS substrate, label the tree with routing coordinates, and drive
// a packet batch — the full stack at a size the map-backed engine could
// not touch. It must complete in single-digit seconds per iteration.
func BenchmarkScaleBFSRouting(b *testing.B) {
	sizes := []int{100_000}
	if !testing.Short() {
		sizes = append(sizes, 300_000)
	}
	for _, n := range sizes {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := graph.RandomConnected(n, 8/float64(n), rng)
			g.Dense() // build the index snapshot with the rest of the fixture
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := runtime.NewNetwork(g, spanning.Algorithm{})
				if err != nil {
					b.Fatal(err)
				}
				spanning.InitSelfRoot(net)
				res, err := net.Run(runtime.Synchronous(), 2_000_000_000)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Silent {
					b.Fatal("not silent")
				}
				tr, err := spanning.ExtractTree(net)
				if err != nil {
					b.Fatal(err)
				}
				r := routing.NewRouter(g, routing.Label(tr), routing.Options{})
				stats, err := routing.Drive(r, routing.UniformPairs(g.Nodes(), 10_000, rng), routing.DriveOptions{MaxExactSources: -1})
				if err != nil {
					b.Fatal(err)
				}
				if stats.Delivered != stats.Sent {
					b.Fatalf("delivered %d of %d", stats.Delivered, stats.Sent)
				}
			}
		})
	}
}

// BenchmarkLockstepIdleTick times one lockstep Tick of a silent cluster,
// the idle-route-chan workload's shape (n=2000, keep-alives backed off
// to one per 31 ticks): what is left is the driver handing out node
// ticks, a gate check per node, and ingesting the keep-alives that are
// due — a node runs its round about twice per 62 ticks. Convergence and
// the in-band quiet announcement happen outside the timer. Compare
// drivers with -cpu 1,2; it asserts nothing about time. -short runs a
// size the CI smoke converges in well under a second.
func BenchmarkLockstepIdleTick(b *testing.B) {
	n := 2000
	if testing.Short() {
		n = 256
	}
	b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomConnected(n, 8/float64(n), rng)
		cl, err := cluster.New(g, spanning.Algorithm{}, cluster.NewChanTransport(), cluster.Config{StalenessTTL: 128})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Stop()
		cl.InitArbitrary(rng)
		if _, quiet := cl.RunUntilQuiet(32*n, 4); !quiet {
			b.Fatal("no quiet")
		}
		for i := 0; !cl.QuietAnnounced(); i++ {
			if i == 8*128+64 {
				b.Fatal("silence never announced")
			}
			cl.Tick()
		}
		b.ReportAllocs()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cl.Tick()
		}
		b.StopTimer()
		goruntime.ReadMemStats(&after)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(n), "allocs/node")
	})
}

// --- Ablation benchmarks (design-choice experiments, DESIGN.md §4). ---

func BenchmarkA1MalleabilityAblation(b *testing.B) {
	var protocolAlarms, naiveAlarms int
	for i := 0; i < b.N; i++ {
		tb, err := bench.A1Malleability([]int{24}, 1)
		if err != nil {
			b.Fatal(err)
		}
		protocolAlarms, _ = strconv.Atoi(tb.Rows[0][1])
		naiveAlarms, _ = strconv.Atoi(tb.Rows[0][3])
	}
	b.ReportMetric(float64(protocolAlarms), "protocol-alarms")
	b.ReportMetric(float64(naiveAlarms), "naive-alarms")
}

func BenchmarkA2NCAEncodingAblation(b *testing.B) {
	var paper, naive int
	for i := 0; i < b.N; i++ {
		tb, err := bench.A2NCAEncoding([]int{256}, 2)
		if err != nil {
			b.Fatal(err)
		}
		paper, _ = strconv.Atoi(tb.Rows[0][1])
		naive, _ = strconv.Atoi(tb.Rows[0][3])
	}
	b.ReportMetric(float64(paper), "paper-bits")
	b.ReportMetric(float64(naive), "naive-bits")
}

func BenchmarkA3SchedulerSpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.A3Schedulers(16, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA4FamilySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.A4Families(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
