package switching

import (
	"math/rand"
	"testing"
	"unsafe"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

func newNet(t *testing.T, g *graph.Graph) *runtime.Network {
	t.Helper()
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func runToSilence(t *testing.T, net *runtime.Network, sched runtime.Scheduler) runtime.Result {
	t.Helper()
	res, err := net.Run(sched, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatalf("not silent after %d moves / %d rounds", res.Moves, res.Rounds)
	}
	return res
}

// checkLegal verifies the configuration is a fully labeled spanning tree
// accepted by the Lemma 4.1 verifier with idle controls.
func checkLegal(t *testing.T, net *runtime.Network) *trees.Tree {
	t.Helper()
	tr, err := ExtractTree(net)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ToAssignment(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(net.Graph()); err != nil {
		t.Fatalf("verifier rejects silent configuration: %v", err)
	}
	for _, v := range net.Graph().Nodes() {
		s := net.State(v).(State)
		if !s.Idle() {
			t.Fatalf("node %d has active controls at silence: %v", v, s)
		}
		if !s.HasD || !s.HasS {
			t.Fatalf("node %d has pruned labels at silence: %v", v, s)
		}
	}
	return tr
}

func TestStabilizesFromArbitraryStates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string]*graph.Graph{
		"path":     graph.Path(10),
		"ring":     graph.Ring(9),
		"complete": graph.Complete(6),
		"grid":     graph.Grid(3, 4),
		"random":   graph.RandomConnected(20, 0.2, rng),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				net := newNet(t, g)
				net.InitArbitrary(rand.New(rand.NewSource(seed)))
				runToSilence(t, net, runtime.Central())
				tr := checkLegal(t, net)
				if tr.Root() != g.MinID() {
					t.Errorf("seed %d: root %d, want %d", seed, tr.Root(), g.MinID())
				}
			}
		})
	}
}

func TestStabilizesUnderAdversarialScheduler(t *testing.T) {
	g := graph.RandomConnected(15, 0.25, rand.New(rand.NewSource(2)))
	for seed := int64(0); seed < 10; seed++ {
		net := newNet(t, g)
		net.InitArbitrary(rand.New(rand.NewSource(100 + seed)))
		runToSilence(t, net, runtime.AdversarialUnfair())
		checkLegal(t, net)
	}
}

func TestInitFromTreeIsSilent(t *testing.T) {
	g := graph.Grid(4, 4)
	tr, err := trees.BFSTree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	if err := InitFromTree(net, tr); err != nil {
		t.Fatal(err)
	}
	if !net.Silent() {
		t.Fatalf("legal configuration not silent; enabled: %v", net.Enabled())
	}
}

// TestSingleSwitchLoopFreeAndMalleable is experiment E1's core property:
// a legal switch executes with the spanning tree intact after every step
// and zero verifier alarms, ending silent on the new tree.
func TestSingleSwitchLoopFreeAndMalleable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := graph.RandomConnected(8+rng.Intn(25), 0.25, rng)
		tr, err := trees.RandomSpanningTree(g, g.MinID(), rng)
		if err != nil {
			t.Fatal(err)
		}
		// Pick a random non-tree edge {v, target} and switch v onto it.
		// Validity (as guaranteed by the task layers driving switches):
		// the target must not be a descendant of the initiator, and the
		// initiator is never the root.
		nte := tr.NonTreeEdges(g)
		if len(nte) == 0 {
			continue
		}
		e := nte[rng.Intn(len(nte))]
		v, target := e.U, e.V
		switch tr.NCA(e.U, e.V) {
		case e.U: // U is an ancestor of V: only V may initiate.
			v, target = e.V, e.U
		case e.V: // V is an ancestor of U: only U may initiate.
			v, target = e.U, e.V
		default:
			if tr.Parent(v) == trees.None {
				v, target = e.V, e.U
			}
		}
		net := newNet(t, g)
		if err := InitFromTree(net, tr); err != nil {
			t.Fatal(err)
		}
		net.AddMonitor(LoopFreeMonitor())
		net.AddMonitor(MalleabilityMonitor())
		if err := InjectSwitch(net, v, target); err != nil {
			t.Fatal(err)
		}
		runToSilence(t, net, runtime.Central())
		got := checkLegal(t, net)
		// The new tree must be exactly T + e - {v, old parent}.
		want, err := tr.Swap(graph.Edge{U: v, V: target}, graph.Edge{U: v, V: tr.Parent(v)})
		if err != nil {
			t.Fatalf("trial %d: reference swap: %v", trial, err)
		}
		if got.Parent(v) != target {
			t.Fatalf("trial %d: node %d has parent %d, want %d", trial, v, got.Parent(v), target)
		}
		for _, x := range want.Nodes() {
			if got.Parent(x) != want.Parent(x) {
				t.Fatalf("trial %d: node %d parent %d, want %d", trial, x, got.Parent(x), want.Parent(x))
			}
		}
	}
}

func TestSwitchRoundsLinear(t *testing.T) {
	// E1 shape: rounds per switch grow at most linearly with n.
	rng := rand.New(rand.NewSource(4))
	var prev int
	for _, n := range []int{8, 16, 32, 64} {
		g := graph.Ring(n)
		tr, err := trees.BFSTree(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		nte := tr.NonTreeEdges(g)
		if len(nte) != 1 {
			t.Fatal("ring BFS tree should have one non-tree edge")
		}
		e := nte[0]
		v, target := e.U, e.V
		if tr.Parent(v) == trees.None {
			v, target = e.V, e.U
		}
		net := newNet(t, g)
		if err := InitFromTree(net, tr); err != nil {
			t.Fatal(err)
		}
		if err := InjectSwitch(net, v, target); err != nil {
			t.Fatal(err)
		}
		res := runToSilence(t, net, runtime.Synchronous())
		if prev > 0 && res.Rounds > 6*prev {
			t.Errorf("n=%d: rounds %d vs previous %d — super-linear growth", n, res.Rounds, prev)
		}
		prev = res.Rounds
		_ = rng
	}
}

func TestConcurrentSwitchesStayLoopFree(t *testing.T) {
	// Several initiators at once: the guards must serialize or safely
	// parallelize the switches; the tree invariant holds throughout.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomConnected(20, 0.3, rng)
		tr, err := trees.RandomSpanningTree(g, g.MinID(), rng)
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, g)
		if err := InitFromTree(net, tr); err != nil {
			t.Fatal(err)
		}
		net.AddMonitor(LoopFreeMonitor())
		injected := 0
		for _, e := range tr.NonTreeEdges(g) {
			if injected >= 3 {
				break
			}
			v, target := e.U, e.V
			if tr.Parent(v) == trees.None {
				continue
			}
			s := net.State(v).(State)
			if s.Sw != SwIdle {
				continue
			}
			if err := InjectSwitch(net, v, target); err != nil {
				continue
			}
			injected++
		}
		if injected == 0 {
			continue
		}
		runToSilence(t, net, runtime.RandomSubset(rng))
		checkLegal(t, net)
	}
}

func TestFaultsDuringSwitchRecover(t *testing.T) {
	// Corrupt registers mid-switch; the system must still reach a legal
	// silent configuration (self-stabilization of the protocol layer).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(15, 0.25, rng)
		tr, err := trees.RandomSpanningTree(g, g.MinID(), rng)
		if err != nil {
			t.Fatal(err)
		}
		nte := tr.NonTreeEdges(g)
		if len(nte) == 0 {
			continue
		}
		e := nte[rng.Intn(len(nte))]
		v, target := e.U, e.V
		if tr.Parent(v) == trees.None {
			v, target = e.V, e.U
		}
		net := newNet(t, g)
		if err := InitFromTree(net, tr); err != nil {
			t.Fatal(err)
		}
		if err := InjectSwitch(net, v, target); err != nil {
			t.Fatal(err)
		}
		// Run a handful of moves, then corrupt.
		if _, err := net.Run(runtime.Central(), 10+rng.Intn(20)); err != nil {
			t.Fatal(err)
		}
		runtime.Corrupt(net, 1+rng.Intn(3), rng)
		runToSilence(t, net, runtime.Central())
		checkLegal(t, net)
	}
}

func TestRecoveryFromPostStabilizationFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Grid(4, 5)
	net := newNet(t, g)
	net.InitArbitrary(rng)
	runToSilence(t, net, runtime.Central())
	for trial := 0; trial < 10; trial++ {
		runtime.Corrupt(net, 1+rng.Intn(4), rng)
		runToSilence(t, net, runtime.Central())
		checkLegal(t, net)
	}
}

func TestSpaceLogarithmic(t *testing.T) {
	for _, n := range []int{16, 32, 64} {
		g := graph.RandomConnected(n, 0.15, rand.New(rand.NewSource(int64(n))))
		net := newNet(t, g)
		net.InitArbitrary(rand.New(rand.NewSource(99)))
		res := runToSilence(t, net, runtime.Central())
		bound := 6*(log2ceil(2*n)+1) + 12
		if res.MaxRegisterBits > bound {
			t.Errorf("n=%d: %d register bits, want <= %d", n, res.MaxRegisterBits, bound)
		}
	}
}

func TestInjectSwitchValidation(t *testing.T) {
	g := graph.Ring(6)
	tr, err := trees.BFSTree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	if err := InitFromTree(net, tr); err != nil {
		t.Fatal(err)
	}
	if err := InjectSwitch(net, 2, 5); err == nil {
		t.Error("accepted non-edge switch")
	}
	if err := InjectSwitch(net, 2, 1); err == nil {
		t.Error("accepted switch to current parent")
	}
	if err := InjectSwitch(net, 1, 2); err == nil {
		t.Error("accepted root as initiator")
	}
}

func log2ceil(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

var (
	stepSink State
	algSink  runtime.State
)

// TestStateLayout: the register is at most 48 bytes, its fields laid
// out widest first (see State). StepReg copies it into and out of every
// rule and each gathered neighbor carries one, so a field added in the
// wrong place costs every δ.
func TestStateLayout(t *testing.T) {
	if size := unsafe.Sizeof(State{}); size > 48 {
		t.Fatalf("switching.State is %d bytes, want at most 48", size)
	}
}

// TestStepRegAllocatesNothing: up to degree hoodCap an evaluation reads
// its neighborhood without a heap allocation — at a quiet root with d
// children, and at a quiet inner node with a parent and d-1 children.
// Algorithm.Step hands such a node its own register back, so it boxes
// nothing either.
func TestStepRegAllocatesNothing(t *testing.T) {
	idle := func(root, parent graph.NodeID, d, s int) State {
		return State{Root: root, Parent: parent, HasD: true, D: d, HasS: true, S: s,
			Sw: SwIdle, SwTarget: trees.None, Pr: PrOff, Sub: SubOff}
	}
	for d := 1; d <= hoodCap; d++ {
		nbrs := make([]graph.NodeID, d)
		peers := make([]runtime.State, d)
		for j := range nbrs {
			nbrs[j] = graph.NodeID(j + 2)
			peers[j] = idle(1, 1, 1, 1)
		}
		weights := make([]graph.Weight, d)
		rootSelf := idle(1, trees.None, 0, d+1)
		root := runtime.NewView(1, d+2, nbrs, weights, rootSelf, peers)

		inner := make([]runtime.State, d)
		inner[0] = idle(1, trees.None, 0, d+1)
		for j := 1; j < d; j++ {
			inner[j] = idle(1, graph.NodeID(d+2), 2, 1)
		}
		innerNbrs := append([]graph.NodeID{1}, nbrs[1:]...)
		innerSelf := idle(1, 1, 1, d)
		mid := runtime.NewView(graph.NodeID(d+2), d+2, innerNbrs, weights, innerSelf, inner)

		for _, c := range []struct {
			self State
			v    runtime.View
		}{{rootSelf, root}, {innerSelf, mid}} {
			if got := StepReg(c.self, c.v); got != c.self {
				t.Fatalf("degree %d: node %d is not quiet: %v -> %v", d, c.v.ID, c.self, got)
			}
			if allocs := testing.AllocsPerRun(100, func() { stepSink = StepReg(c.self, c.v) }); allocs != 0 {
				t.Errorf("degree %d, node %d: %.1f allocations per StepReg, want 0", d, c.v.ID, allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() { algSink = Algorithm{}.Step(c.v) }); allocs != 0 {
				t.Errorf("degree %d, node %d: %.1f allocations per Algorithm.Step, want 0", d, c.v.ID, allocs)
			}
		}
	}
}
