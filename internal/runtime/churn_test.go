package runtime

// Live-topology churn: the Network mutators must keep the register
// file, enabled set, dirty worklist, and round frontier consistent
// while nodes and edges appear and disappear under stabilization. The
// tests below cover the mutation edge cases one by one (table tests),
// the EnabledSet's identity-order view under slot recycling (oracle
// test), and a concurrent run with a live mutator goroutine (race
// test; run with -race in CI).

import (
	"math/rand"
	"slices"
	"testing"

	"silentspan/internal/graph"
)

// verifyParentConfig checks a silent parentAlg configuration against
// its graph: every connected component must be a tree rooted at the
// component's minimum identity, with every node claiming that root and
// a distance consistent with its parent's.
func verifyParentConfig(t *testing.T, g *graph.Graph, net *Network) {
	t.Helper()
	comp := make(map[graph.NodeID]graph.NodeID) // node -> component min ID
	for _, v := range g.Nodes() {
		if _, done := comp[v]; done {
			continue
		}
		// BFS the component, tracking its minimum identity.
		members := []graph.NodeID{v}
		seen := map[graph.NodeID]bool{v: true}
		min := v
		for qi := 0; qi < len(members); qi++ {
			for _, u := range g.NeighborsShared(members[qi]) {
				if !seen[u] {
					seen[u] = true
					members = append(members, u)
					if u < min {
						min = u
					}
				}
			}
		}
		for _, u := range members {
			comp[u] = min
		}
	}
	for _, v := range g.Nodes() {
		s, ok := net.State(v).(parentState)
		if !ok {
			t.Fatalf("node %d holds foreign state %v", v, net.State(v))
		}
		root := comp[v]
		if s.Root != root {
			t.Fatalf("node %d claims root %d, want component min %d", v, s.Root, root)
		}
		if v == root {
			if s.Parent != 0 || s.Dist != 0 {
				t.Fatalf("root %d not self-rooted: %v", v, s)
			}
			continue
		}
		if s.Parent == 0 {
			t.Fatalf("non-root %d claims to be a root: %v", v, s)
		}
		p, ok := net.State(s.Parent).(parentState)
		if !ok || !g.HasEdge(v, s.Parent) {
			t.Fatalf("node %d has bogus parent %d", v, s.Parent)
		}
		if s.Dist != p.Dist+1 {
			t.Fatalf("node %d dist %d, parent %d dist %d", v, s.Dist, s.Parent, p.Dist)
		}
	}
}

// stabilize runs the network to silence and fails the test otherwise.
func stabilize(t *testing.T, net *Network) Result {
	t.Helper()
	res, err := net.Run(Central(), net.Moves()+200_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("network did not re-stabilize")
	}
	return res
}

// TestNetworkChurnTableCases drives every mutation edge case through a
// live network and asserts re-stabilization to a correct configuration
// of the *mutated* graph.
func TestNetworkChurnTableCases(t *testing.T) {
	// Base fixture: 1-2-3-4-5 path plus a 3-6 spur; node 1 is the root.
	build := func() (*graph.Graph, *Network) {
		g := graph.New()
		g.MustAddEdge(1, 2, 10)
		g.MustAddEdge(2, 3, 11)
		g.MustAddEdge(3, 4, 12)
		g.MustAddEdge(4, 5, 13)
		g.MustAddEdge(3, 6, 14)
		net, err := NewNetwork(g, parentAlg{})
		if err != nil {
			t.Fatal(err)
		}
		net.InitArbitrary(rand.New(rand.NewSource(5)))
		stabilize(t, net)
		verifyParentConfig(t, g, net)
		return g, net
	}

	t.Run("remove-root", func(t *testing.T) {
		g, net := build()
		// Removing node 1 splits nothing (1 is a leaf on the path) and
		// re-elects node 2 as minimum identity.
		if err := net.RemoveNode(1); err != nil {
			t.Fatal(err)
		}
		stabilize(t, net)
		verifyParentConfig(t, g, net)
		if s := net.State(2).(parentState); s.Root != 2 {
			t.Fatalf("new minimum 2 claims root %d", s.Root)
		}
	})

	t.Run("remove-articulation-node", func(t *testing.T) {
		g, net := build()
		// Node 3 is an articulation point: its removal splits the graph
		// into {1,2} and {4,5} and isolates 6 entirely.
		if err := net.RemoveNode(3); err != nil {
			t.Fatal(err)
		}
		if g.Connected() {
			t.Fatal("expected the graph to split")
		}
		stabilize(t, net)
		verifyParentConfig(t, g, net) // per-component roots 1, 4, 6
	})

	t.Run("add-shortcut-edge", func(t *testing.T) {
		g, net := build()
		// A 1-5 shortcut drops 5's distance from 4 to 1; the tree must
		// re-hang 5 (and possibly 4) below the shortcut.
		if err := net.AddEdge(1, 5, 20); err != nil {
			t.Fatal(err)
		}
		stabilize(t, net)
		verifyParentConfig(t, g, net)
		if s := net.State(5).(parentState); s.Dist != 1 || s.Parent != 1 {
			t.Fatalf("node 5 did not adopt the shortcut: %v", s)
		}
	})

	t.Run("remove-leaf-last-edge", func(t *testing.T) {
		g, net := build()
		// 3-6 is leaf 6's only edge: removing it isolates 6, which must
		// re-stabilize as the root of its own singleton component.
		if err := net.RemoveEdge(3, 6); err != nil {
			t.Fatal(err)
		}
		if g.Degree(6) != 0 {
			t.Fatalf("leaf 6 has degree %d after losing its last edge", g.Degree(6))
		}
		stabilize(t, net)
		verifyParentConfig(t, g, net)
	})

	t.Run("join-reuses-vacated-slot", func(t *testing.T) {
		g, net := build()
		slot, _ := net.Dense().IndexOf(4)
		if err := net.RemoveNode(4); err != nil {
			t.Fatal(err)
		}
		// Node 9 joins on the vacated slot, wired to 5 — healing 5's
		// orphaned component back via 9? No: 9-5 and 9-3 re-join it.
		if err := net.AddNode(9); err != nil {
			t.Fatal(err)
		}
		if got, _ := net.Dense().IndexOf(9); got != slot {
			t.Fatalf("node 9 got slot %d, want vacated slot %d", got, slot)
		}
		if err := net.AddEdge(9, 5, 30); err != nil {
			t.Fatal(err)
		}
		if err := net.AddEdge(9, 3, 31); err != nil {
			t.Fatal(err)
		}
		stabilize(t, net)
		verifyParentConfig(t, g, net)
		if !g.Connected() {
			t.Fatal("graph should be healed")
		}
	})

	t.Run("idempotence-and-errors", func(t *testing.T) {
		_, net := build()
		if err := net.AddNode(2); err == nil {
			t.Error("duplicate AddNode accepted")
		}
		if err := net.AddEdge(1, 2, 50); err == nil {
			t.Error("duplicate AddEdge accepted")
		}
		if err := net.RemoveEdge(1, 5); err == nil {
			t.Error("RemoveEdge accepted an absent edge")
		}
		if err := net.RemoveEdge(1, 2); err != nil {
			t.Fatal(err)
		}
		if err := net.RemoveEdge(1, 2); err == nil {
			t.Error("double RemoveEdge accepted")
		}
		if err := net.RemoveNode(77); err == nil {
			t.Error("RemoveNode accepted an unknown node")
		}
		if err := net.RemoveNode(6); err != nil {
			t.Fatal(err)
		}
		if err := net.RemoveNode(6); err == nil {
			t.Error("double RemoveNode accepted")
		}
		stabilize(t, net)
	})
}

// TestEnabledSetChurnOracle recycles slots through a live graph while
// toggling memberships, checking every ordered accessor against a
// plain map oracle. This is the identity-order view's torture test:
// after enough joins and leaves, slot order and identity order are
// thoroughly decorrelated.
func TestEnabledSetChurnOracle(t *testing.T) {
	g := graph.New()
	for id := 1; id <= 24; id++ {
		g.AddNode(graph.NodeID(id))
	}
	d := g.Dense()
	es := newEnabledSet(d)
	enabled := make(map[graph.NodeID]bool)
	present := make(map[graph.NodeID]bool)
	for id := 1; id <= 24; id++ {
		present[graph.NodeID(id)] = true
	}
	rng := rand.New(rand.NewSource(41))
	nextID := graph.NodeID(100)

	liveIDs := func() []graph.NodeID {
		var out []graph.NodeID
		for id := range present {
			out = append(out, id)
		}
		slices.Sort(out)
		return out
	}

	for step := 0; step < 4000; step++ {
		ids := liveIDs()
		switch op := rng.Intn(10); {
		case op < 5: // toggle membership of a live node
			v := ids[rng.Intn(len(ids))]
			slot, ok := d.IndexOf(v)
			if !ok {
				t.Fatalf("live node %d unresolvable", v)
			}
			if enabled[v] {
				es.remove(slot)
				delete(enabled, v)
			} else {
				es.add(slot)
				enabled[v] = true
			}
		case op < 7: // leave
			if len(ids) <= 2 {
				continue
			}
			v := ids[rng.Intn(len(ids))]
			slot, _ := d.IndexOf(v)
			es.deleteSlot(slot)
			if err := g.RemoveNode(v); err != nil {
				t.Fatal(err)
			}
			delete(present, v)
			delete(enabled, v)
		default: // join (reusing vacated slots when available)
			id := nextID
			nextID++
			if rng.Intn(2) == 0 && len(ids) < 40 {
				// Small IDs too, so joins land on both sides of the
				// existing identity range.
				id = graph.NodeID(rng.Intn(90) + 1)
				if present[id] {
					continue
				}
			}
			g.AddNode(id)
			slot, _ := d.IndexOf(id)
			es.insertID(slot, id)
			present[id] = true
		}

		if step%37 != 0 {
			continue
		}
		var want []graph.NodeID
		for id := range enabled {
			want = append(want, id)
		}
		slices.Sort(want)
		if es.Len() != len(want) {
			t.Fatalf("step %d: Len=%d, want %d", step, es.Len(), len(want))
		}
		if got := es.AppendIDs(nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: AppendIDs=%v, want %v", step, got, want)
		}
		if len(want) > 0 {
			if es.MinID() != want[0] {
				t.Fatalf("step %d: MinID=%d, want %d", step, es.MinID(), want[0])
			}
			k := rng.Intn(len(want))
			if es.IDAt(k) != want[k] {
				t.Fatalf("step %d: IDAt(%d)=%d, want %d", step, k, es.IDAt(k), want[k])
			}
			probe := want[rng.Intn(len(want))]
			if !es.ContainsID(probe) {
				t.Fatalf("step %d: ContainsID(%d)=false", step, probe)
			}
			j, _ := slices.BinarySearch(want, probe+1)
			if j < len(want) {
				if got, ok := es.NextIDAfter(probe); !ok || got != want[j] {
					t.Fatalf("step %d: NextIDAfter(%d)=%d,%v, want %d", step, probe, got, ok, want[j])
				}
			} else if _, ok := es.NextIDAfter(probe); ok {
				t.Fatalf("step %d: NextIDAfter(max) should be none", step)
			}
		}
	}
}

// TestChurnUnderSequentialRuns interleaves mutation bursts with
// sequential repair runs under every scheduler, asserting
// re-stabilization and a correct final configuration each time — the
// engine-level churn campaign the cert package scales up.
func TestChurnUnderSequentialRuns(t *testing.T) {
	for schedName, mkSched := range equivSchedulers() {
		t.Run(schedName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			g := graph.RandomConnected(30, 0.15, rng)
			net, err := NewNetwork(g, parentAlg{})
			if err != nil {
				t.Fatal(err)
			}
			net.InitArbitrary(rand.New(rand.NewSource(24)))
			sched := mkSched(99)
			nextID := graph.NodeID(500)
			for burst := 0; burst < 12; burst++ {
				if _, err := net.Run(sched, net.Moves()+100_000); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 4; k++ {
					nodes := g.Nodes()
					switch op := rng.Intn(6); {
					case op < 2:
						u := nodes[rng.Intn(len(nodes))]
						v := nodes[rng.Intn(len(nodes))]
						if u != v && !g.HasEdge(u, v) {
							if err := net.AddEdge(u, v, graph.Weight(10_000+burst*100+k)); err != nil {
								t.Fatal(err)
							}
						}
					case op < 4:
						edges := g.Edges()
						e := edges[rng.Intn(len(edges))]
						if err := net.RemoveEdge(e.U, e.V); err != nil {
							t.Fatal(err)
						}
					case op < 5:
						if len(nodes) > 3 {
							if err := net.RemoveNode(nodes[rng.Intn(len(nodes))]); err != nil {
								t.Fatal(err)
							}
						}
					default:
						if err := net.AddNode(nextID); err != nil {
							t.Fatal(err)
						}
						anchor := nodes[rng.Intn(len(nodes))]
						if err := net.AddEdge(nextID, anchor, graph.Weight(20_000+int(nextID))); err != nil {
							t.Fatal(err)
						}
						nextID++
					}
				}
			}
			res, err := net.Run(sched, net.Moves()+300_000)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Silent {
				t.Fatal("not silent after final burst")
			}
			if err := CheckSilentStable(net); err != nil {
				t.Fatal(err)
			}
			verifyParentConfig(t, g, net)
		})
	}
}
