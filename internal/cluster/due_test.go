package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/spanning"
)

// This file pins Tick's due set: an idle tick runs few node ticks and
// often none, and every input that reaches a node from outside its
// round — a frame, an out-of-band write, a packet, a new neighbor row —
// runs it in the very next Tick, however far off its own deadlines are.

// ranLast reports whether nd's tick ran in the last Tick: its own clock,
// not the one Node.clock shows readers.
func ranLast(cl *Cluster, nd *Node) bool { return nd.localTick == cl.Ticks() }

// idleNodes returns the live nodes the due set would skip in the next
// Tick, in slot order.
func idleNodes(cl *Cluster) []*Node {
	var out []*Node
	for i, at := range cl.due {
		if nd := cl.nodes[i]; nd != nil && at > cl.Ticks()+1 {
			out = append(out, nd)
		}
	}
	return out
}

// settle ticks the cluster quiet again after a perturbation.
func settle(cl *Cluster) {
	for i := 0; i < cl.cfg.StalenessTTL; i++ {
		cl.Tick()
	}
}

// idlePair returns two idle nodes, adjacent or not.
func idlePair(t *testing.T, cl *Cluster, adjacent bool) (*Node, *Node) {
	t.Helper()
	idle := idleNodes(cl)
	for _, a := range idle {
		for _, b := range idle {
			if _, adj := slices.BinarySearch(a.neighbors, b.id); a != b && adj == adjacent {
				return a, b
			}
		}
	}
	t.Fatalf("no idle pair with adjacent = %v", adjacent)
	return nil, nil
}

// live returns the live nodes.
func live(cl *Cluster) []*Node {
	return slices.DeleteFunc(slices.Clone(cl.nodes), func(nd *Node) bool { return nd == nil })
}

// tickRan runs one Tick and fails unless every node in nds ran in it.
func tickRan(t *testing.T, cl *Cluster, what string, nds ...*Node) {
	t.Helper()
	cl.Tick()
	for _, nd := range nds {
		if !ranLast(cl, nd) {
			t.Fatalf("%s: node %d did not run in tick %d (its clock is at %d)", what, nd.id, cl.Ticks(), nd.localTick)
		}
	}
}

// TestDueSetSkipsIdleTicks counts node ticks over the announced-idle
// window TestIdleClusterSkipsRounds counts δ evaluations over: a node
// runs when a keep-alive reaches it or its own falls due, about one tick
// in ten, and a third of the ticks run no node at all.
func TestDueSetSkipsIdleTicks(t *testing.T) {
	const n, window = 256, 62
	cl, _ := idleCluster(t, n)
	runs, empty := 0, 0
	for i := 0; i < window; i++ {
		cl.Tick()
		ran := 0
		for _, nd := range cl.nodes {
			if nd != nil && ranLast(cl, nd) {
				ran++
			}
		}
		runs += ran
		if ran == 0 {
			empty++
		}
	}
	perNode := float64(runs) / n / window
	t.Logf("%.3f node ticks per node per idle tick; %d of %d ticks ran no node", perNode, empty, window)
	if perNode > 0.2 {
		t.Fatalf("%.3f node ticks per node per idle tick, want ≤ 0.2", perNode)
	}
	if empty < 20 {
		t.Fatalf("%d of %d idle ticks ran no node, want ≥ 20", empty, window)
	}
}

// TestDueSetFrameDelivery: a node that Step handed a frame runs in the
// next Tick, also when its own deadlines are further off.
func TestDueSetFrameDelivery(t *testing.T) {
	cl, _ := idleCluster(t, 256)
	woken := 0
	for i := 0; i < 62; i++ {
		var inbox []*Node
		for _, nd := range cl.nodes {
			if nd != nil && len(nd.ep.(*chanEndpoint).in) > 0 {
				inbox = append(inbox, nd)
				if min(nd.wakeAt, nd.nextHB) > cl.Ticks()+1 {
					woken++
				}
			}
		}
		tickRan(t, cl, "frame waiting", inbox...)
	}
	if woken == 0 {
		t.Fatal("no frame reached a node that was not due anyway")
	}
}

// TestDueSetGoodbyeFlush: the goodbye Evict flushes out of a leaver's
// tick buffer runs the neighbor it reaches, which evicts the leaver.
func TestDueSetGoodbyeFlush(t *testing.T) {
	cl, _ := idleCluster(t, 256)
	leaver, nb := idlePair(t, cl, true)
	j, _ := slices.BinarySearch(nb.neighbors, leaver.id)
	evictions := nb.Stats().NeighborEvictions
	// Retire's first half, without the re-row that makes every node due.
	cl.memMu.Lock()
	cl.sendGoodbye(leaver)
	cl.tr.(evictor).Evict(leaver.id)
	cl.memMu.Unlock()
	tickRan(t, cl, "goodbye flushed", nb)
	if nb.Stats().NeighborEvictions != evictions+1 || nb.nbr[j].lastSeen != 0 {
		t.Fatalf("neighbor %d kept the leaver %d: %+v", nb.id, leaver.id, nb.nbr[j])
	}
}

// TestDueSetOutOfBandWrites: SetState, Corrupt and InitArbitrary run
// every node they write in the next Tick.
func TestDueSetOutOfBandWrites(t *testing.T) {
	cl, _ := idleCluster(t, 256)
	victim := idleNodes(cl)[0]
	cl.SetState(victim.id, spanning.State{Root: victim.id, Parent: 0, Dist: 0})
	tickRan(t, cl, "SetState", victim)

	settle(cl)
	idle := idleNodes(cl)
	var corrupted []*Node
	for _, id := range cl.Corrupt(8, rand.New(rand.NewSource(5))) {
		corrupted = append(corrupted, cl.Node(id))
	}
	if !slices.ContainsFunc(corrupted, func(nd *Node) bool { return slices.Contains(idle, nd) }) {
		t.Fatal("Corrupt hit no idle node")
	}
	tickRan(t, cl, "Corrupt", corrupted...)

	settle(cl)
	cl.InitArbitrary(rand.New(rand.NewSource(6)))
	tickRan(t, cl, "InitArbitrary", live(cl)...)
}

// TestDueSetLaunch: a packet launched at an idle source leaves it in the
// next Tick.
func TestDueSetLaunch(t *testing.T) {
	cl, _ := idleCluster(t, 256)
	gw := NewGateway(cl)
	idle := idleNodes(cl)
	src, dst := idle[0], idle[len(idle)-1]
	gw.Launch([]routing.Pair{{Src: src.id, Dst: dst.id}})
	tickRan(t, cl, "Launch", src)
	if st := src.Stats(); st.PacketsForwarded != 1 {
		t.Fatalf("source forwarded %d packets, want 1", st.PacketsForwarded)
	}
}

// TestDueSetMembership: a joiner and every node its join re-rows run in
// the next Tick, and so do both endpoints of a link that comes up or
// goes down.
func TestDueSetMembership(t *testing.T) {
	cl, _ := idleCluster(t, 256)
	// The joiner is a crashed node coming back over the links it had.
	joiner := idleNodes(cl)[0].id
	var edges []graph.Edge
	for _, u := range cl.Graph().Neighbors(joiner) {
		w, _ := cl.Graph().EdgeWeight(joiner, u)
		edges = append(edges, graph.Edge{U: joiner, V: u, W: w})
	}
	if err := cl.Crash(joiner); err != nil {
		t.Fatal(err)
	}
	settle(cl)
	if err := cl.Join(joiner, edges); err != nil {
		t.Fatal(err)
	}
	tickRan(t, cl, "Join", live(cl)...)

	settle(cl)
	u, v := idlePair(t, cl, false)
	if err := cl.AddEdge(u.id, v.id, 1); err != nil {
		t.Fatal(err)
	}
	tickRan(t, cl, "AddEdge", u, v)

	settle(cl)
	u, v = idlePair(t, cl, true)
	if err := cl.RemoveEdge(u.id, v.id); err != nil {
		t.Fatal(err)
	}
	tickRan(t, cl, "RemoveEdge", u, v)
}

// TestDueSetPending: a node runs again in the next Tick while it has
// something pending — a register write its round made, here under a
// keep-alive period that would not bring it back by itself, or a packet
// parked on an unroutable destination, until the stall budget drops it.
func TestDueSetPending(t *testing.T) {
	cl, _ := quietCluster(t, 64, Config{HeartbeatEvery: 3, StalenessTTL: 64})
	idle := idleNodes(cl)
	victim := idle[len(idle)-1] // not the root, whose register this is
	writes := victim.Stats().RegisterWrites
	cl.SetState(victim.id, spanning.State{Root: victim.id, Parent: 0, Dist: 0})
	tickRan(t, cl, "SetState", victim)
	if victim.Stats().RegisterWrites != writes+1 {
		t.Fatal("the round did not repair the register")
	}
	tickRan(t, cl, "after the repair write", victim)

	settle(cl)
	gw := NewGateway(cl)
	src := idleNodes(cl)[0]
	gw.Launch([]routing.Pair{{Src: src.id, Dst: slices.Max(cl.Graph().Nodes()) + 1}})
	since := cl.Ticks()
	for cl.Ticks() < since+maxHold {
		tickRan(t, cl, "packet parked", src)
	}
	if gs := gw.Stats(); gs.Dropped != 0 {
		t.Fatalf("dropped within the stall budget: %+v", gs)
	}
	tickRan(t, cl, "stall budget spent", src)
	if gs := gw.Stats(); gs.Dropped != 1 {
		t.Fatalf("not dropped as the stall budget ran out: %+v", gs)
	}
}
