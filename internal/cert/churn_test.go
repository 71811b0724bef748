package cert

import (
	"math/rand"
	"slices"
	"testing"

	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
)

// TestNetworkTargetJoinRejectsWhole: the simulator's Join checks the
// whole join first, as the cluster's does. A join with an edge between
// two old members, or with a bad edge after a good one, is an error and
// leaves no node and no edge behind; the valid join of the same id then
// lands.
func TestNetworkTargetJoinRejectsWhole(t *testing.T) {
	net, err := runtime.NewNetwork(graph.Path(6), spanning.Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	g, target := net.Graph(), NetworkTarget{net}
	for _, tc := range []struct {
		name  string
		id    graph.NodeID
		edges []graph.Edge
	}{
		{"foreign edge", 99, []graph.Edge{{U: 99, V: 1, W: 50}, {U: 2, V: 5, W: 51}}},
		{"edge to a non-member", 99, []graph.Edge{{U: 99, V: 1, W: 50}, {U: 99, V: 7, W: 51}}},
		{"duplicate edge", 99, []graph.Edge{{U: 99, V: 1, W: 50}, {U: 1, V: 99, W: 51}}},
		{"id already present", 3, []graph.Edge{{U: 3, V: 1, W: 50}}},
	} {
		if err := target.Join(tc.id, tc.edges); err == nil {
			t.Errorf("%s: Join(%d, %v) accepted", tc.name, tc.id, tc.edges)
		}
		if g.N() != 6 || g.M() != 5 || g.HasNode(99) {
			t.Fatalf("%s: rejected join left N=%d M=%d, want 6, 5", tc.name, g.N(), g.M())
		}
	}
	if err := target.Join(99, []graph.Edge{{U: 99, V: 1, W: 50}, {U: 6, V: 99, W: 51}}); err != nil {
		t.Fatalf("valid join after the rejected ones: %v", err)
	}
	if g.N() != 7 || g.M() != 7 || !g.HasEdge(6, 99) {
		t.Fatalf("valid join: N=%d M=%d, want 7, 7", g.N(), g.M())
	}
}

// TestChurnScheduleGeneratorInvariants: every generated schedule must
// replay cleanly against a live network (ops valid in order) and leave
// the final graph connected.
func TestChurnScheduleGeneratorInvariants(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(5+int(seed%4), 0.5, rng)
		ops := GenerateChurnSchedule(g, 12, seed)
		sim := g.Clone()
		for oi, op := range ops {
			var err error
			switch op.Kind {
			case ChurnJoin:
				sim.AddNode(op.Node)
				for _, e := range op.Edges {
					err = sim.AddEdge(e.U, e.V, e.W)
					if err != nil {
						break
					}
				}
			case ChurnLeave:
				err = sim.RemoveNode(op.Node)
			case ChurnLinkDown, ChurnPartition:
				for _, e := range op.Edges {
					if err = sim.RemoveEdge(e.U, e.V); err != nil {
						break
					}
				}
			case ChurnLinkUp, ChurnHeal:
				for _, e := range op.Edges {
					if err = sim.AddEdge(e.U, e.V, e.W); err != nil {
						break
					}
				}
			case ChurnCorrupt:
				// state-only
			}
			if err != nil {
				t.Fatalf("seed %d: op %d (%s) does not replay: %v", seed, oi, op, err)
			}
		}
		if !sim.Connected() {
			t.Fatalf("seed %d: final graph disconnected", seed)
		}
		if !sim.DistinctWeights() {
			t.Fatalf("seed %d: generated weights collide", seed)
		}
	}
}

// TestChurnCampaignSlice runs a reduced churn certification campaign —
// small graphs, every algorithm, every daemon — and requires zero
// counterexamples: after every seeded join/leave/partition/heal
// schedule the system re-stabilizes to a spec-correct configuration of
// the final graph and the post-churn labeling serves all traffic.
func TestChurnCampaignSlice(t *testing.T) {
	cfg := ChurnConfig{MaxN: 5, Schedules: 1, Length: 8, Seed: 7}
	if testing.Short() {
		cfg.MaxN = 4
	}
	rep, err := RunChurn(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ce := range rep.Counterexamples {
		t.Errorf("counterexample: %s", ce)
	}
	if rep.Runs == 0 || rep.Mutations == 0 {
		t.Fatalf("campaign did not run: %+v", rep)
	}
	if rep.PacketsSent == 0 || rep.PacketsArrived == 0 {
		t.Fatalf("no cohort traffic flowed: sent %d arrived %d", rep.PacketsSent, rep.PacketsArrived)
	}
	t.Logf("churn slice: %d runs, %d mutations, cohort %d/%d delivered",
		rep.Runs, rep.Mutations, rep.PacketsArrived, rep.PacketsSent)
}

// TestApplyChurnOpTargetsAgree: one schedule applied through
// ApplyChurnOp to a simulator network and to a lockstep cluster must
// leave equal graphs, and the cluster's membership counters must account
// for exactly the schedule's joins and leaves — the leaves split between
// goodbyes and crashes by the adapter's alternation.
func TestApplyChurnOpTargetsAgree(t *testing.T) {
	crashes := 0
	for seed := int64(1); seed <= 6; seed++ {
		g := graph.RandomConnected(7, 0.5, rand.New(rand.NewSource(seed)))
		ops := GenerateChurnSchedule(g, 14, seed)
		net, err := runtime.NewNetwork(g.Clone(), spanning.Algorithm{})
		if err != nil {
			t.Fatal(err)
		}
		net.InitArbitrary(rand.New(rand.NewSource(seed)))
		cl, err := cluster.New(g.Clone(), spanning.Algorithm{}, cluster.NewChanTransport(), cluster.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cl.InitArbitrary(rand.New(rand.NewSource(seed)))
		simTarget, clTarget := NetworkTarget{net}, &clusterTarget{Cluster: cl}
		joins, leaves := 0, 0
		for oi, op := range ops {
			switch op.Kind {
			case ChurnJoin:
				joins++
			case ChurnLeave:
				leaves++
			}
			ms, err := ApplyChurnOp(simTarget, op, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d: network op %d (%s): %v", seed, oi, op, err)
			}
			mc, err := ApplyChurnOp(clTarget, op, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d: cluster op %d (%s): %v", seed, oi, op, err)
			}
			if ms != mc {
				t.Fatalf("seed %d: op %d (%s) counted %d mutations on the network, %d on the cluster", seed, oi, op, ms, mc)
			}
			cl.Tick()
		}
		gn, gc := net.Graph(), cl.Graph()
		if !slices.Equal(gn.Nodes(), gc.Nodes()) {
			t.Errorf("seed %d: nodes diverge: network %v, cluster %v", seed, gn.Nodes(), gc.Nodes())
		}
		if !slices.Equal(gn.Edges(), gc.Edges()) {
			t.Errorf("seed %d: edges diverge: network %v, cluster %v", seed, gn.Edges(), gc.Edges())
		}
		st := cl.Stats()
		if st.Joins != joins || st.Leaves+st.Crashes != leaves {
			t.Errorf("seed %d: cluster counted %d joins, %d leaves + %d crashes; schedule has %d joins, %d leaves",
				seed, st.Joins, st.Leaves, st.Crashes, joins, leaves)
		}
		if st.Leaves != (leaves+1)/2 || st.Crashes != leaves/2 {
			t.Errorf("seed %d: %d leaves split %d goodbye / %d crash, want alternation starting with a goodbye",
				seed, leaves, st.Leaves, st.Crashes)
		}
		crashes += st.Crashes
		cl.Stop()
	}
	if crashes == 0 {
		t.Fatal("no schedule had two leaves: the crash half of the alternation never ran")
	}
}
