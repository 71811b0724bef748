package spanning

import (
	"math/rand"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

func stabilize(t *testing.T, g *graph.Graph, sched runtime.Scheduler, seed int64) (*runtime.Network, runtime.Result) {
	t.Helper()
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	net.InitArbitrary(rng)
	res, err := net.Run(sched, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatalf("not silent after %d moves / %d rounds", res.Moves, res.Rounds)
	}
	return net, res
}

func checkLegal(t *testing.T, net *runtime.Network) *trees.Tree {
	t.Helper()
	tr, err := ExtractTree(net)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	if tr.Root() != g.MinID() {
		t.Errorf("root = %d, want min ID %d", tr.Root(), g.MinID())
	}
	if !trees.IsBFSTree(tr, g) {
		t.Error("stabilized tree is not a BFS tree of the root")
	}
	// Register contents must be the legal labels.
	dist, err := g.BFSDistances(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Nodes() {
		s := net.State(v).(State)
		if s.Root != tr.Root() {
			t.Errorf("node %d claims root %d", v, s.Root)
		}
		if s.Dist != dist[v] {
			t.Errorf("node %d claims dist %d, want %d", v, s.Dist, dist[v])
		}
	}
	return tr
}

func TestStabilizesOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := map[string]*graph.Graph{
		"path":        graph.Path(15),
		"ring":        graph.Ring(12),
		"star":        graph.Star(10),
		"complete":    graph.Complete(8),
		"grid":        graph.Grid(4, 4),
		"caterpillar": graph.Caterpillar(6, 2),
		"lollipop":    graph.Lollipop(5, 5),
		"random":      graph.RandomConnected(30, 0.15, rng),
		"geometric":   graph.RandomGeometric(25, 0.3, rng),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			net, _ := stabilize(t, g, runtime.Central(), 7)
			checkLegal(t, net)
		})
	}
}

func TestStabilizesUnderAllSchedulers(t *testing.T) {
	g := graph.RandomConnected(25, 0.2, rand.New(rand.NewSource(5)))
	scheds := map[string]runtime.Scheduler{
		"synchronous": runtime.Synchronous(),
		"central":     runtime.Central(),
		"adversarial": runtime.AdversarialUnfair(),
		"roundrobin":  runtime.RoundRobin(),
		"random":      runtime.RandomSubset(rand.New(rand.NewSource(6))),
	}
	for name, sched := range scheds {
		t.Run(name, func(t *testing.T) {
			net, _ := stabilize(t, g, sched, 11)
			checkLegal(t, net)
		})
	}
}

func TestManySeeds(t *testing.T) {
	// Convergence from many arbitrary initial configurations.
	g := graph.RandomConnected(20, 0.2, rand.New(rand.NewSource(8)))
	for seed := int64(0); seed < 25; seed++ {
		net, _ := stabilize(t, g, runtime.AdversarialUnfair(), seed)
		checkLegal(t, net)
	}
}

func TestFakeRootErosion(t *testing.T) {
	// Plant a fake root identity smaller than every real one (real IDs
	// are 1..n; fake root 0 is impossible per consistency, so corrupt
	// with a chain claiming a root that does not exist: remove node 1's
	// claim by starting all nodes believing in a ghost).
	g := graph.Path(10)
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	// All nodes claim a nonexistent tiny root reachable via the left
	// neighbor; the distance cap must erode the illusion.
	for _, v := range g.Nodes() {
		if v == 1 {
			net.SetState(v, State{Root: 1, Parent: trees.None, Dist: 0})
			continue
		}
		net.SetState(v, State{Root: 1, Parent: v - 1, Dist: int(v) - 1})
	}
	// Corrupt the interior: nodes 5..10 claim ghost root "2" via node 4.
	// Root 2 < their IDs, and the claim is mutually supported.
	for v := graph.NodeID(5); v <= 10; v++ {
		net.SetState(v, State{Root: 2, Parent: v - 1, Dist: int(v)})
	}
	res, err := net.Run(runtime.Central(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("not silent")
	}
	checkLegal(t, net)
}

func TestRecoveryFromFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.Grid(5, 5)
	net, _ := stabilize(t, g, runtime.Central(), 17)
	for trial := 0; trial < 10; trial++ {
		runtime.Corrupt(net, 1+rng.Intn(5), rng)
		res, err := net.Run(runtime.Central(), 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Silent {
			t.Fatalf("trial %d: no re-stabilization", trial)
		}
		checkLegal(t, net)
	}
}

func TestSpaceIsLogarithmic(t *testing.T) {
	// Registers must stay within c*log2(n) bits: 3 fields of at most
	// ceil(log2(2n))+1 bits each in any reachable configuration.
	for _, n := range []int{8, 16, 32, 64} {
		g := graph.RandomConnected(n, 0.1, rand.New(rand.NewSource(int64(n))))
		net, res := stabilize(t, g, runtime.Central(), 23)
		_ = net
		bound := 3 * (log2ceil(2*n) + 1)
		if res.MaxRegisterBits > bound {
			t.Errorf("n=%d: register = %d bits, want <= %d", n, res.MaxRegisterBits, bound)
		}
	}
}

func TestRoundsPolynomial(t *testing.T) {
	// Shape check: rounds grow modestly (empirically O(n)) with n under
	// the synchronous daemon.
	var prev int
	for _, n := range []int{10, 20, 40} {
		g := graph.Path(n)
		_, res := stabilize(t, g, runtime.Synchronous(), 29)
		if prev > 0 && res.Rounds > 8*prev {
			t.Errorf("rounds jumped from %d to %d when doubling n", prev, res.Rounds)
		}
		prev = res.Rounds
	}
}

func TestSilenceIsStable(t *testing.T) {
	g := graph.Ring(10)
	net, _ := stabilize(t, g, runtime.Central(), 31)
	if err := runtime.CheckSilentStable(net); err != nil {
		t.Fatal(err)
	}
	// Re-running must produce zero moves.
	res, err := net.Run(runtime.Central(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != net.Moves() && res.Moves != 0 {
		t.Errorf("silent network moved")
	}
}

func TestSingleNode(t *testing.T) {
	g := graph.New()
	g.AddNode(1)
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	net.InitArbitrary(rand.New(rand.NewSource(1)))
	res, err := net.Run(runtime.Central(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("single node not silent")
	}
	if _, err := ExtractTree(net); err != nil {
		t.Fatal(err)
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

// TestQuietStepAllocatesNothing: at every node of a silent network δ
// hands the node its own register back, so a disabled Step boxes
// nothing.
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
