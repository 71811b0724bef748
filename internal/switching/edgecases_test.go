package switching

import (
	"math/rand"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// TestSwitchOntoAncestor: the new parent w' is a strict ancestor of the
// old parent w (shortcutting upward) — both prune paths share a prefix
// and the nca restore must wait for both children.
func TestSwitchOntoAncestor(t *testing.T) {
	// Path 1-2-3-4-5 plus chord {2,5}: node 5 switches from 4 to 2.
	g := graph.New()
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 2)
	g.MustAddEdge(3, 4, 3)
	g.MustAddEdge(4, 5, 4)
	g.MustAddEdge(2, 5, 5)
	tr, err := trees.FromParentMap(map[graph.NodeID]graph.NodeID{
		1: trees.None, 2: 1, 3: 2, 4: 3, 5: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	if err := InitFromTree(net, tr); err != nil {
		t.Fatal(err)
	}
	net.AddMonitor(LoopFreeMonitor())
	net.AddMonitor(MalleabilityMonitor())
	if err := InjectSwitch(net, 5, 2); err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(runtime.Central(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("not silent")
	}
	got, err := ExtractTree(net)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parent(5) != 2 {
		t.Errorf("parent(5) = %d, want 2", got.Parent(5))
	}
}

// TestSwitchOntoRoot: the new parent is the root itself (shortest
// possible prune path on the w' side).
func TestSwitchOntoRoot(t *testing.T) {
	g := graph.Ring(6)
	tr, err := trees.FromParentMap(map[graph.NodeID]graph.NodeID{
		1: trees.None, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	if err := InitFromTree(net, tr); err != nil {
		t.Fatal(err)
	}
	net.AddMonitor(LoopFreeMonitor())
	net.AddMonitor(MalleabilityMonitor())
	// 6 adopts 1 across the ring-closing edge.
	if err := InjectSwitch(net, 6, 1); err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(runtime.Central(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("not silent")
	}
	got, err := ExtractTree(net)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parent(6) != 1 {
		t.Errorf("parent(6) = %d, want 1", got.Parent(6))
	}
}

// TestLeafInitiator: a leaf switching (empty subtree wave: the ack is
// vacuous and the switch should be quick).
func TestLeafInitiator(t *testing.T) {
	g := graph.New()
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(1, 3, 2)
	g.MustAddEdge(2, 4, 3)
	g.MustAddEdge(3, 4, 4)
	tr, err := trees.FromParentMap(map[graph.NodeID]graph.NodeID{
		1: trees.None, 2: 1, 3: 1, 4: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	if err := InitFromTree(net, tr); err != nil {
		t.Fatal(err)
	}
	net.AddMonitor(MalleabilityMonitor())
	if err := InjectSwitch(net, 4, 3); err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(runtime.Central(), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("not silent")
	}
	got, err := ExtractTree(net)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parent(4) != 3 {
		t.Errorf("parent(4) = %d, want 3", got.Parent(4))
	}
}

// TestSequentialSwapChain: many successive legal switches on one live
// network — the ExecuteSwap pattern of the engine — must compose with
// monitors armed throughout.
func TestSequentialSwapChain(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := graph.RandomConnected(18, 0.3, rng)
	tr, err := trees.RandomSpanningTree(g, g.MinID(), rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	if err := InitFromTree(net, tr); err != nil {
		t.Fatal(err)
	}
	net.AddMonitor(LoopFreeMonitor())
	net.AddMonitor(MalleabilityMonitor())
	performed := 0
	for step := 0; step < 10; step++ {
		nte := tr.NonTreeEdges(g)
		var v, target graph.NodeID
		found := false
		for _, e := range nte {
			switch tr.NCA(e.U, e.V) {
			case e.U:
				v, target, found = e.V, e.U, true
			case e.V:
				v, target, found = e.U, e.V, true
			default:
				if tr.Parent(e.U) != trees.None {
					v, target, found = e.U, e.V, true
				}
			}
			if found {
				break
			}
		}
		if !found {
			break
		}
		if err := InjectSwitch(net, v, target); err != nil {
			t.Fatal(err)
		}
		res, err := net.Run(runtime.Central(), 500000)
		if err != nil {
			t.Fatalf("swap %d: %v", step, err)
		}
		if !res.Silent {
			t.Fatalf("swap %d: not silent", step)
		}
		tr, err = ExtractTree(net)
		if err != nil {
			t.Fatal(err)
		}
		performed++
	}
	if performed < 3 {
		t.Fatalf("only %d swaps performed; chain test too weak", performed)
	}
	a, err := ToAssignment(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(g); err != nil {
		t.Fatalf("final configuration rejected: %v", err)
	}
}

// TestInvalidRequestRecovers: a request whose target is inside the
// initiator's subtree must abort cleanly and restore full labels (no
// deadlock, no permanent pruning).
func TestInvalidRequestRecovers(t *testing.T) {
	// Star-with-path: 1 is root, 2 under 1, 3 under 2; edge {2,3} is a
	// tree edge, so use 4: 1-2-4 path and chord {2,4}... Build: 1-2,
	// 2-3, 3-4, chord {2,4}: target 4 is a descendant of initiator 2.
	g := graph.New()
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 2)
	g.MustAddEdge(3, 4, 3)
	g.MustAddEdge(2, 4, 4)
	tr, err := trees.FromParentMap(map[graph.NodeID]graph.NodeID{
		1: trees.None, 2: 1, 3: 2, 4: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := runtime.NewNetwork(g, Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	if err := InitFromTree(net, tr); err != nil {
		t.Fatal(err)
	}
	net.AddMonitor(LoopFreeMonitor())
	if err := InjectSwitch(net, 2, 4); err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(runtime.Central(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("invalid request did not quiesce")
	}
	got, err := ExtractTree(net)
	if err != nil {
		t.Fatal(err)
	}
	// The tree must be unchanged and fully labeled.
	if got.Parent(2) != 1 {
		t.Errorf("invalid switch was executed: parent(2) = %d", got.Parent(2))
	}
	a, err := ToAssignment(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(g); err != nil {
		t.Fatalf("labels not restored after abort: %v", err)
	}
}

// TestPrunedChildJoinsPruneWave: on the path 1-2-3, node 2 is in a
// subtree-prune wave (d = ⊥, SubPrune) and its child 3 has already lost
// its distance but not joined (d = ⊥, SubOff). The child must join the
// wave so the parent can acknowledge and both restore; otherwise
// neither node is enabled and the configuration is silent with pruned
// labels and an active control.
func TestPrunedChildJoinsPruneWave(t *testing.T) {
	g := graph.Path(3)
	tr, err := trees.FromParentMap(map[graph.NodeID]graph.NodeID{
		1: trees.None, 2: 1, 3: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	legal := newNet(t, g)
	if err := InitFromTree(legal, tr); err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	if err := InitFromTree(net, tr); err != nil {
		t.Fatal(err)
	}
	s2 := net.State(2).(State)
	s2.HasD, s2.D, s2.Sub = false, 0, SubPrune
	net.SetState(2, s2)
	s3 := net.State(3).(State)
	s3.HasD, s3.D = false, 0
	net.SetState(3, s3)
	runToSilence(t, net, runtime.Synchronous())
	checkLegal(t, net)
	for _, v := range g.Nodes() {
		if got, want := net.State(v), legal.State(v); !got.Equal(want) {
			t.Errorf("node %d holds %v at silence, want %v", v, got, want)
		}
	}
}
