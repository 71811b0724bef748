package cluster

import (
	"math/rand"
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
