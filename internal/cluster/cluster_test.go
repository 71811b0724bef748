package cluster

import (
	"math/rand"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"

	"silentspan/internal/bfs"
	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// algorithms under test: the three always-on rule systems. MST/MDST run
// switching registers and are certified in internal/cert.
func testAlgorithms() []runtime.Algorithm {
	return []runtime.Algorithm{spanning.Algorithm{}, switching.Algorithm{}, bfs.Algorithm{}}
}

func testGraphs(rng *rand.Rand) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path-7":    graph.Path(7),
		"ring-8":    graph.Ring(8),
		"random-12": graph.RandomConnected(12, 0.3, rng),
	}
}

// quietTicks is ample slack over the default heartbeat period and the
// fault wrapper's max delay.
const quietTicks = 8

// converge runs cl to quiet and fails the test if it does not settle.
func converge(t *testing.T, cl *Cluster, maxTicks int) {
	t.Helper()
	ticks, ok := cl.RunUntilQuiet(maxTicks, quietTicks)
	if !ok {
		t.Fatalf("no quiet within %d ticks (%d registers changed last tick)", maxTicks, cl.ChangedLastTick())
	}
	t.Logf("quiet after %d ticks", ticks)
}

// checkSilentTree mirrors the cluster registers into a shared-memory
// network and asserts the projection is silent and encodes a spanning
// tree rooted at the minimum identity.
func checkSilentTree(t *testing.T, cl *Cluster) {
	t.Helper()
	net, err := cl.Mirror()
	if err != nil {
		t.Fatal(err)
	}
	if !net.Silent() {
		t.Fatalf("cluster quiet but shared-memory projection not silent: enabled=%v", net.Enabled())
	}
	var tr *trees.Tree
	if _, ok := cl.Algorithm().(spanning.Algorithm); ok {
		tr, err = spanning.ExtractTree(net)
	} else {
		tr, err = switching.ExtractTree(net)
	}
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != cl.Graph().MinID() {
		t.Fatalf("root %d, want minimum identity %d", tr.Root(), cl.Graph().MinID())
	}
}

// TestClusterConverges: every always-on algorithm, started from an
// adversarial configuration with empty caches, converges over the
// in-process transport to the silent tree of the shared-memory model.
func TestClusterConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, g := range testGraphs(rng) {
		for _, alg := range testAlgorithms() {
			t.Run(name+"/"+alg.Name(), func(t *testing.T) {
				cl, err := New(g, alg, NewChanTransport(), Config{})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Stop()
				cl.InitArbitrary(rand.New(rand.NewSource(9)))
				converge(t, cl, 4000)
				checkSilentTree(t, cl)
			})
		}
	}
}

// TestClusterConvergesUnderFaults: same assertion through a lossy,
// duplicating, reordering, corrupting transport (the checksum turns
// corruption into loss).
func TestClusterConvergesUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfgs := map[string]FaultConfig{
		"lossy":   {Seed: 3, Loss: 0.2},
		"chaotic": {Seed: 4, Loss: 0.1, Dup: 0.1, Corrupt: 0.05, Delay: 0.2, MaxDelayTicks: 4},
	}
	for name, g := range testGraphs(rng) {
		for _, alg := range testAlgorithms() {
			for fname, fc := range cfgs {
				t.Run(name+"/"+alg.Name()+"/"+fname, func(t *testing.T) {
					ft := NewFaultTransport(NewChanTransport(), fc)
					cl, err := New(g, alg, ft, Config{StalenessTTL: 24})
					if err != nil {
						t.Fatal(err)
					}
					defer cl.Stop()
					cl.InitArbitrary(rand.New(rand.NewSource(11)))
					converge(t, cl, 20000)
					checkSilentTree(t, cl)
					// The run must actually have been adversarial: a fault
					// wrapper regressing to a no-op would make convergence
					// trivially clean and void the test.
					st := ft.Stats()
					if st.Lost == 0 {
						t.Fatalf("no frame was ever lost: %+v", st)
					}
					if fname == "chaotic" && (st.Corrupted == 0 || st.Duplicated == 0 || st.Delayed == 0) {
						t.Fatalf("chaotic profile left fault classes unused: %+v", st)
					}
				})
			}
		}
	}
}

// TestGatewayDelivery: after convergence the gateway's labeling is the
// complete labeling of the stabilized tree, and a packet batch carried
// hop-by-hop as data frames over the clean transport delivers 100%.
func TestGatewayDelivery(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomConnected(16, 0.25, rng)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	gw := NewGateway(cl)
	cl.InitArbitrary(rng)
	converge(t, cl, 4000)
	checkSilentTree(t, cl)
	if !gw.Labeling().Complete() {
		t.Fatalf("labeling incomplete after convergence: %d covered", gw.Labeling().Covered())
	}

	pairs := routing.UniformPairs(g.Nodes(), 200, rng)
	gw.Launch(pairs)
	for i := 0; i < 4*g.N() && gw.Outstanding() > 0; i++ {
		cl.Tick()
	}
	if n := gw.Outstanding(); n > 0 {
		t.Fatalf("%d packets unresolved on a clean transport", n)
	}
	st := gw.Stats()
	if st.DeliveryRate() != 1 {
		t.Fatalf("delivery %.3f, want 1.0 (%+v)", st.DeliveryRate(), st)
	}
	if st.MeanHops() <= 0 {
		t.Fatalf("mean hops %.2f", st.MeanHops())
	}
}

// TestGatewayDeliveryUnderFaults: packets launched mid-convergence
// through an adversarial transport; after the control plane settles and
// faults are quiesced, a fresh batch delivers 100% and the mid-chaos
// cohort is fully accounted (delivered + dropped + lost = launched).
func TestGatewayDeliveryUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomConnected(14, 0.3, rng)
	ft := NewFaultTransport(NewChanTransport(), FaultConfig{
		Seed: 21, Loss: 0.1, Dup: 0.1, Corrupt: 0.05, Delay: 0.2, MaxDelayTicks: 3})
	cl, err := New(g, bfs.Algorithm{}, ft, Config{StalenessTTL: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	gw := NewGateway(cl)
	cl.InitArbitrary(rng)

	// Launch mid-convergence: a few ticks in, labeling still decayed.
	for i := 0; i < 5; i++ {
		cl.Tick()
	}
	gw.Launch(routing.UniformPairs(g.Nodes(), 64, rng))
	converge(t, cl, 20000)
	checkSilentTree(t, cl)

	// Let in-flight copies resolve, then reap transit losses.
	for i := 0; i < 4*g.N(); i++ {
		cl.Tick()
	}
	gw.Expire()
	st := gw.Stats()
	if st.Delivered+st.Dropped+st.Lost != st.Launched {
		t.Fatalf("cohort unaccounted: %+v", st)
	}

	// Recovered service over a clean data path.
	ft.SetEnabled(false)
	gw.Launch(routing.UniformPairs(g.Nodes(), 100, rng))
	for i := 0; i < 4*g.N() && gw.Outstanding() > 0; i++ {
		cl.Tick()
	}
	post := gw.Stats()
	if post.Delivered-st.Delivered != 100 {
		t.Fatalf("post-recovery batch: %d of 100 delivered (%+v)", post.Delivered-st.Delivered, post)
	}
}

// TestGatewayLabelingMatchesRegisters: the gateway refreshes only when
// the write counter moved, and learns of membership and link changes
// that write no register from the mutators' own publish calls. After
// every Tick of a churned cluster — crashes and joins, rejected joins
// (a bad edge list, a present id, an id the transport refuses), links
// toggled with no write in between, registers overwritten between
// ticks — its labeling equals one built from scratch off the registers.
func TestGatewayLabelingMatchesRegisters(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := NewChanTransport()
	cl, err := New(graph.Ring(8), spanning.Algorithm{}, tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	gw := NewGateway(cl)
	ticks := 0
	tick := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			cl.Tick()
			ticks++
			g := cl.Graph()
			d := g.Dense()
			parents := make([]graph.NodeID, d.Slots())
			for i := range parents {
				parents[i] = routing.NoParent
				if d.LiveAt(i) {
					parents[i] = routing.ParentOf(cl.State(d.ID(i)))
				}
			}
			got, want := gw.Labeling(), routing.LiveLabeling(g, parents)
			if got.Covered() != want.Covered() {
				t.Fatalf("tick %d: gateway labels %d nodes, registers %d", ticks, got.Covered(), want.Covered())
			}
			for _, v := range g.Nodes() {
				gc, gok := got.Coords(v)
				wc, wok := want.Coords(v)
				gr, _ := got.RootOf(v)
				wr, _ := want.RootOf(v)
				if gok != wok || gr != wr || !slices.Equal(gc, wc) {
					t.Fatalf("tick %d: node %d labeled %v under %d, registers say %v under %d", ticks, v, gc, gr, wc, wr)
				}
			}
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cl.InitArbitrary(rng)
	tick(60)
	must(cl.Crash(3))
	tick(30)
	if _, err := tr.Open(9); err != nil {
		t.Fatal(err)
	}
	for _, j := range []struct {
		id    graph.NodeID
		edges []graph.Edge
	}{
		{3, []graph.Edge{{U: 3, V: 2, W: 2}, {U: 5, V: 1, W: 20}}},
		{3, []graph.Edge{{U: 3, V: 2, W: 2}, {U: 3, V: 9, W: 20}}},
		{3, []graph.Edge{{U: 3, V: 2, W: 2}, {U: 2, V: 3, W: 20}}},
		{4, []graph.Edge{{U: 4, V: 2, W: 20}}},
		{9, []graph.Edge{{U: 9, V: 2, W: 20}}}, // open refused
	} {
		if err := cl.Join(j.id, j.edges); err == nil {
			t.Fatalf("Join(%d, %v) accepted", j.id, j.edges)
		}
		if g := cl.Graph(); g.N() != 7 || g.M() != 6 {
			t.Fatalf("rejected Join(%d, %v) left N=%d M=%d, want 7, 6", j.id, j.edges, g.N(), g.M())
		}
		tick(1)
	}
	must(cl.Join(3, []graph.Edge{{U: 3, V: 2, W: 2}, {U: 3, V: 4, W: 3}}))
	tick(30)
	must(cl.AddEdge(1, 5, 20))
	must(cl.RemoveEdge(1, 5))
	tick(1)
	must(cl.AddEdge(2, 6, 21))
	tick(30)
	must(cl.RemoveEdge(2, 6))
	tick(30)
	cl.SetState(5, spanning.State{Root: 5, Parent: 4, Dist: 1})
	tick(1)
	cl.Corrupt(2, rng)
	tick(100)
	// Node 5 sits opposite root 1 on the ring: re-hanging it from its
	// other neighbor is as good a tree, so no δ writes after it and only
	// the out-of-band write can move the labeling.
	s, _ := cl.State(5).(spanning.State)
	if s.Root != 1 || s.Dist != 4 {
		t.Fatalf("premise: node 5 holds %+v, want root 1 at distance 4", s)
	}
	s.Parent = 10 - s.Parent
	cl.SetState(5, s)
	tick(30)
	must(cl.Leave(7))
	tick(30)
}

// TestCorruptClampsCount: like runtime.Corrupt, a count above the live
// size corrupts every node and a negative one none.
func TestCorruptClampsCount(t *testing.T) {
	cl, err := New(graph.Ring(6), spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(1)))
	if got := cl.Corrupt(1000, rand.New(rand.NewSource(2))); len(got) != 6 {
		t.Fatalf("count>n: corrupted %d nodes, want all 6", len(got))
	}
	if got := cl.Corrupt(-3, rand.New(rand.NewSource(2))); len(got) != 0 {
		t.Fatalf("negative count: corrupted %d nodes, want 0", len(got))
	}
}

// TestNewRejectsVacatedSlots: a graph whose Dense has a vacated slot
// cannot be clustered, and the error names the remedy that works — a
// Graph.Clone numbers its slots afresh, with no holes.
func TestNewRejectsVacatedSlots(t *testing.T) {
	g := graph.Ring(6)
	g.Dense()
	if err := g.RemoveNode(4); err != nil {
		t.Fatal(err)
	}
	_, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err == nil || !strings.Contains(err.Error(), "Graph.Clone") {
		t.Fatalf("New over a vacated slot: err = %v, want one naming Graph.Clone", err)
	}
	cl, err := New(g.Clone(), spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatalf("New over the clone: %v", err)
	}
	defer cl.Stop()
	converge(t, cl, 400)
	checkSilentTree(t, cl)
}

// TestClusterResidentBytesPerNode pins the live heap a cluster holds per
// node: the heap delta across New over an already built
// RandomConnected(n, 8/n) (average degree about 10), running spanning
// over the channel transport. Each node keeps
// its register, a cloned neighbor row with one receive record per
// neighbor, its endpoint and its counters; the cluster adds no register
// file of its own. The logged figure is the cluster's bytes-per-node
// point (about 2.5 kB on amd64); the ceiling leaves headroom over it.
func TestClusterResidentBytesPerNode(t *testing.T) {
	for _, n := range []int{2000, 20000} {
		g := graph.RandomConnected(n, 8/float64(n), rand.New(rand.NewSource(1)))
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		goruntime.GC()
		goruntime.ReadMemStats(&after)
		perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
		goruntime.KeepAlive(cl)
		cl.Stop()
		t.Logf("n=%d, %d edges: %.1f B of live heap per node", n, g.M(), perNode)
		if perNode > 3072 {
			t.Fatalf("n=%d: %.1f B of live heap per node, want at most 3072", n, perNode)
		}
	}
}
