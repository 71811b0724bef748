package bfs

import (
	"math/rand"
	"testing"

	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

func stabilize(t *testing.T, g *graph.Graph, sched runtime.Scheduler, seed int64) (*runtime.Network, runtime.Result) {
	t.Helper()
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	net.InitArbitrary(rand.New(rand.NewSource(seed)))
	res, err := net.Run(sched, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatalf("not silent after %d moves / %d rounds", res.Moves, res.Rounds)
	}
	return net, res
}

func checkBFS(t *testing.T, net *runtime.Network) *trees.Tree {
	t.Helper()
	tr, err := switching.ExtractTree(net)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	if tr.Root() != g.MinID() {
		t.Errorf("root %d, want %d", tr.Root(), g.MinID())
	}
	if !trees.IsBFSTree(tr, g) {
		t.Error("stabilized tree is not a BFS tree")
	}
	a, err := switching.ToAssignment(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(g); err != nil {
		t.Errorf("verifier rejects final configuration: %v", err)
	}
	return tr
}

func TestAlwaysOnBFSStabilizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string]*graph.Graph{
		"path":      graph.Path(12),
		"ring":      graph.Ring(11),
		"grid":      graph.Grid(4, 4),
		"complete":  graph.Complete(7),
		"lollipop":  graph.Lollipop(5, 6),
		"random":    graph.RandomConnected(25, 0.2, rng),
		"geometric": graph.RandomGeometric(20, 0.35, rng),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				net, _ := stabilize(t, g, runtime.Central(), seed)
				checkBFS(t, net)
			}
		})
	}
}

func TestAlwaysOnBFSUnderSchedulers(t *testing.T) {
	g := graph.RandomConnected(20, 0.25, rand.New(rand.NewSource(2)))
	scheds := map[string]runtime.Scheduler{
		"synchronous": runtime.Synchronous(),
		"adversarial": runtime.AdversarialUnfair(),
		"random":      runtime.RandomSubset(rand.New(rand.NewSource(3))),
	}
	for name, sched := range scheds {
		t.Run(name, func(t *testing.T) {
			net, _ := stabilize(t, g, sched, 7)
			checkBFS(t, net)
		})
	}
}

func TestAlwaysOnBFSLoopFreeFromLegalTree(t *testing.T) {
	// Start from a legal non-BFS tree: every intermediate configuration
	// keeps the spanning tree (loop-freedom of the repair).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(15, 0.3, rng)
		tr, err := trees.DFSTree(g, g.MinID())
		if err != nil {
			t.Fatal(err)
		}
		net, err := runtime.NewNetwork(g, Algorithm{})
		if err != nil {
			t.Fatal(err)
		}
		if err := switching.InitFromTree(net, tr); err != nil {
			t.Fatal(err)
		}
		net.AddMonitor(switching.LoopFreeMonitor())
		res, err := net.Run(runtime.Central(), 4_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Silent {
			t.Fatal("not silent")
		}
		checkBFS(t, net)
	}
}

func TestFaultRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.Grid(4, 5)
	net, _ := stabilize(t, g, runtime.Central(), 8)
	for trial := 0; trial < 8; trial++ {
		runtime.Corrupt(net, 1+rng.Intn(4), rng)
		res, err := net.Run(runtime.Central(), 4_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Silent {
			t.Fatalf("trial %d: no recovery", trial)
		}
		checkBFS(t, net)
	}
}

func TestSpaceLogarithmic(t *testing.T) {
	for _, n := range []int{16, 32, 64} {
		g := graph.RandomConnected(n, 0.12, rand.New(rand.NewSource(int64(n))))
		_, res := stabilize(t, g, runtime.Central(), 9)
		bound := 6*(log2ceil(2*n)+1) + 12
		if res.MaxRegisterBits > bound {
			t.Errorf("n=%d: %d bits > %d", n, res.MaxRegisterBits, bound)
		}
	}
}

func TestTaskPotential(t *testing.T) {
	g := graph.Ring(8)
	bfsT, err := trees.BFSTree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := Task{}.Value(g, bfsT)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 0 {
		t.Errorf("φ(BFS tree) = %d, want 0", phi)
	}
	// The path-shaped tree of a ring has positive potential.
	pathT, err := trees.FromParentMap(pathParents(8))
	if err != nil {
		t.Fatal(err)
	}
	phi, err = Task{}.Value(g, pathT)
	if err != nil {
		t.Fatal(err)
	}
	if phi <= 0 {
		t.Errorf("φ(path tree of ring) = %d, want > 0", phi)
	}
}

func pathParents(n int) map[graph.NodeID]graph.NodeID {
	pm := map[graph.NodeID]graph.NodeID{1: trees.None}
	for i := 2; i <= n; i++ {
		pm[graph.NodeID(i)] = graph.NodeID(i - 1)
	}
	return pm
}

func TestSequentialEngineBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomConnected(10+rng.Intn(30), 0.2, rng)
		t0, err := trees.RandomSpanningTree(g, g.MinID(), rng)
		if err != nil {
			t.Fatal(err)
		}
		final, trace, err := core.RunSequential(g, t0, Task{})
		if err != nil {
			t.Fatal(err)
		}
		if !trees.IsBFSTree(final, g) {
			t.Fatal("sequential engine did not produce a BFS tree")
		}
		// φ strictly decreasing.
		for i := 1; i < len(trace.Potentials); i++ {
			if trace.Potentials[i] >= trace.Potentials[i-1] {
				t.Fatalf("φ not strictly decreasing: %v", trace.Potentials)
			}
		}
	}
}

func TestDistributedEngineBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomConnected(12+rng.Intn(10), 0.25, rng)
		final, trace, err := core.RunDistributed(g, Task{}, core.EngineOptions{
			Monitor: true,
			Rng:     rand.New(rand.NewSource(int64(trial))),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !trees.IsBFSTree(final, g) {
			t.Fatal("distributed engine did not produce a BFS tree")
		}
		if trace.Rounds <= 0 {
			t.Error("no rounds accounted")
		}
		if trace.MaxRegisterBits <= 0 {
			t.Error("no register accounting")
		}
	}
}

func log2ceil(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

var stepSink runtime.State

// TestQuietStepAllocatesNothing: at every node of a silent network
// neither the switching rules nor the improvement rule fire, and Step
// hands the node its own register back — a disabled δ boxes nothing.
func TestQuietStepAllocatesNothing(t *testing.T) {
	net, _ := stabilize(t, graph.Grid(4, 4), runtime.Synchronous(), 3)
	d := net.Dense()
	for i := 0; i < d.Slots(); i++ {
		idx := d.NeighborIndices(i)
		peers := make([]runtime.State, len(idx))
		for j, k := range idx {
			peers[j] = net.StateAt(int(k))
		}
		v := runtime.NewView(d.ID(i), d.N(), d.NeighborIDs(i), d.Weights(i), net.StateAt(i), peers)
		if allocs := testing.AllocsPerRun(100, func() { stepSink = Algorithm{}.Step(v) }); allocs != 0 {
			t.Errorf("node %d: %.1f allocations per quiet Step, want 0", v.ID, allocs)
		}
	}
}
