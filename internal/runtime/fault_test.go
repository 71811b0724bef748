package runtime

import (
	"math/rand"
	"slices"
	"testing"

	"silentspan/internal/graph"
)

// TestCorruptDeterministic: for a seeded rng, Corrupt must pick the same
// victims and write the same states on every run — the replayability the
// chaos certificates depend on.
func TestCorruptDeterministic(t *testing.T) {
	g := graph.RandomConnected(40, 0.1, rand.New(rand.NewSource(7)))
	mk := func() *Network {
		net := newTestNetwork(t, g)
		net.InitArbitrary(rand.New(rand.NewSource(3)))
		return net
	}
	net1, net2 := mk(), mk()
	v1 := Corrupt(net1, 10, rand.New(rand.NewSource(42)))
	v2 := Corrupt(net2, 10, rand.New(rand.NewSource(42)))
	if !slices.Equal(v1, v2) {
		t.Fatalf("victims differ: %v vs %v", v1, v2)
	}
	if len(v1) != 10 {
		t.Fatalf("got %d victims, want 10", len(v1))
	}
	for _, v := range g.Nodes() {
		if !net1.State(v).Equal(net2.State(v)) {
			t.Fatalf("node %d diverged: %v vs %v", v, net1.State(v), net2.State(v))
		}
	}
	// Distinctness.
	seen := make(map[graph.NodeID]bool)
	for _, v := range v1 {
		if seen[v] {
			t.Fatalf("victim %d repeated", v)
		}
		seen[v] = true
	}
}

// TestCorruptClampsCount: count beyond n corrupts every node exactly
// once; negative counts corrupt nothing; neither panics.
func TestCorruptClampsCount(t *testing.T) {
	g := graph.Ring(6)
	net := newTestNetwork(t, g)
	net.InitArbitrary(rand.New(rand.NewSource(1)))
	if got := Corrupt(net, 1000, rand.New(rand.NewSource(2))); len(got) != 6 {
		t.Fatalf("count>n: corrupted %d nodes, want all 6", len(got))
	}
	if got := Corrupt(net, -3, rand.New(rand.NewSource(2))); len(got) != 0 {
		t.Fatalf("negative count: corrupted %d nodes, want 0", len(got))
	}
}

// TestPerturbEdgeWeightVisibleToViews: the campaign hook must land in
// the dense snapshot the register file reads through, and re-enable the
// endpoints' enabledness recomputation.
func TestPerturbEdgeWeightVisibleToViews(t *testing.T) {
	g := graph.Path(4)
	net := newTestNetwork(t, g)
	net.InitArbitrary(rand.New(rand.NewSource(1)))
	if err := net.PerturbEdgeWeight(2, 3, 777); err != nil {
		t.Fatal(err)
	}
	v2, v3 := net.view(2), net.view(3)
	if w := v2.EdgeWeight(3); w != 777 {
		t.Fatalf("view of node 2 sees weight %d, want 777", w)
	}
	if w := v3.EdgeWeight(2); w != 777 {
		t.Fatalf("view of node 3 sees weight %d, want 777", w)
	}
	if w, _ := g.EdgeWeight(2, 3); w != 777 {
		t.Fatalf("graph records weight %d, want 777", w)
	}
	if err := net.PerturbEdgeWeight(1, 4, 1); err == nil {
		t.Fatal("accepted a non-edge")
	}
}
