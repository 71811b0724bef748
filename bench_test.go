package silentspan_test

// Micro-benchmarks for the primitives no benchmark/ row times, the
// 100k-node serving-stack run, the routed batch and the lockstep idle
// tick. The paper's tables are cmd/ssbench; speed is recorded by the
// benchmark/ harness.

import (
	"math/rand"
	goruntime "runtime"
	"strconv"
	"testing"

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

// BenchmarkDistributedConstruction times the paper's MST and MDST
// constructions on the state-model engine, core.RunDistributed — the
// tree stage of the benchmark harness's sim-stack workload. Each
// iteration builds both trees on four RandomConnected(24, 0.2) graphs
// from fixed arbitrary starts. It reports the cost per engine move:
// ns/move and allocs/move, both over the whole run (labeling and
// improvement search included), divided by the moves the engine made.
func BenchmarkDistributedConstruction(b *testing.B) {
	type input struct {
		g    *graph.Graph
		seed int64
	}
	var inputs []input
	for s := int64(1); s <= 4; s++ {
		rng := rand.New(rand.NewSource(s))
		inputs = append(inputs, input{graph.RandomConnected(24, 0.2, rng), rng.Int63()})
	}
	b.ReportAllocs()
	moves := 0
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			for _, task := range []core.Task{mst.Task{}, mdst.Task{}} {
				_, trace, err := core.RunDistributed(in.g, task, core.EngineOptions{Rng: rand.New(rand.NewSource(in.seed))})
				if err != nil {
					b.Fatalf("%s, engine seed %d: %v", task.Name(), in.seed, err)
				}
				moves += trace.Moves
			}
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moves), "ns/move")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(moves), "allocs/move")
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

// BenchmarkRouteBatch times routing.Drive alone, the sim-stack
// workload's routed batch: 30 000 uniform pairs over the labeled
// spanning tree a 20 000-node network stabilised to from arbitrary
// registers, stretch off. Drive shards the batch over GOMAXPROCS
// workers, so compare with -cpu 1,2. It reports ns/pkt and ns/hop and
// asserts full delivery; -short shrinks it tenfold for the CI smoke.
func BenchmarkRouteBatch(b *testing.B) {
	n, packets := 20_000, 30_000
	if testing.Short() {
		n, packets = 2_000, 3_000
	}
	rng := rand.New(rand.NewSource(int64(n)))
	g := graph.RandomConnected(n, 8/float64(n), rng)
	net, err := runtime.NewNetwork(g, spanning.Algorithm{})
	if err != nil {
		b.Fatal(err)
	}
	net.InitArbitrary(rng)
	if res, err := net.Run(runtime.Synchronous(), 1<<40); err != nil || !res.Silent {
		b.Fatalf("not silent: %+v, %v", res, err)
	}
	tr, err := spanning.ExtractTree(net)
	if err != nil {
		b.Fatal(err)
	}
	r := routing.NewRouter(g, routing.Label(tr), routing.Options{})
	pairs := routing.UniformPairs(g.Nodes(), packets, rng)
	hops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := routing.Drive(r, pairs, routing.DriveOptions{MaxExactSources: -1})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Delivered != stats.Sent {
			b.Fatalf("delivered %d of %d", stats.Delivered, stats.Sent)
		}
		hops += stats.HopSum
	}
	b.StopTimer()
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(b.N*packets), "ns/pkt")
	b.ReportMetric(ns/float64(hops), "ns/hop")
}

// BenchmarkLockstepIdleTick times one lockstep Tick of a silent cluster,
// the idle-route-chan workload's shape (n=2000, keep-alives backed off
// to one per 31 ticks): what is left is one pass over the due set, the
// ticks of the nodes a keep-alive reached or whose own fell due — about
// one tick in nine — and ingesting those keep-alives; a node runs its
// round about twice per 62 ticks. Convergence and
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
