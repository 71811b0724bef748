package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New()
	if err := g.AddEdge(1, 1, 0); err == nil {
		t.Fatal("AddEdge accepted a self-loop")
	}
}

func TestAddLinkNeedsTwoMembersAndANewEdge(t *testing.T) {
	g := Path(3)
	for _, e := range []Edge{{U: 1, V: 9}, {U: 9, V: 1}, {U: 1, V: 2}, {U: 2, V: 1}, {U: 2, V: 2}} {
		if err := g.AddLink(e.U, e.V, 50); err == nil {
			t.Errorf("AddLink(%d, %d) accepted", e.U, e.V)
		}
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("rejected links changed the graph: N=%d M=%d", g.N(), g.M())
	}
	if w, _ := g.EdgeWeight(1, 2); w == 50 {
		t.Fatal("a rejected link overwrote a weight")
	}
	if err := g.AddLink(3, 1, 50); err != nil || !g.HasEdge(1, 3) || g.M() != 3 {
		t.Fatalf("AddLink(3, 1) = %v, M=%d", err, g.M())
	}
}

// TestCheckJoinNeedsANewIDAndDistinctMembers: a join names a new,
// non-negative identity and links it only to distinct existing nodes.
func TestCheckJoinNeedsANewIDAndDistinctMembers(t *testing.T) {
	g := Path(6)
	for _, tc := range []struct {
		name  string
		id    NodeID
		edges []Edge
	}{
		{"foreign edge", 99, []Edge{{U: 99, V: 1, W: 50}, {U: 2, V: 5, W: 51}}},
		{"edge to a non-member", 99, []Edge{{U: 99, V: 1, W: 50}, {U: 99, V: 7, W: 51}}},
		{"self-loop", 99, []Edge{{U: 99, V: 99, W: 50}}},
		{"duplicate edge", 99, []Edge{{U: 99, V: 1, W: 50}, {U: 1, V: 99, W: 51}}},
		{"id already present", 3, []Edge{{U: 3, V: 1, W: 50}}},
		{"negative id", -1, nil},
	} {
		if err := g.CheckJoin(tc.id, tc.edges); err == nil {
			t.Errorf("%s: CheckJoin(%d, %v) accepted", tc.name, tc.id, tc.edges)
		}
	}
	for _, edges := range [][]Edge{nil, {{U: 99, V: 1, W: 50}, {U: 6, V: 99, W: 51}}} {
		if err := g.CheckJoin(99, edges); err != nil {
			t.Errorf("CheckJoin(99, %v): %v", edges, err)
		}
	}
	if g.N() != 6 || g.M() != 5 {
		t.Fatalf("CheckJoin changed the graph: N=%d M=%d", g.N(), g.M())
	}
}

func TestBasicAccessors(t *testing.T) {
	g := New()
	g.MustAddEdge(3, 1, 10)
	g.MustAddEdge(1, 2, 20)
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d, want 3, 2", g.N(), g.M())
	}
	if got := g.Nodes(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Nodes() = %v", got)
	}
	if !g.HasEdge(1, 3) || !g.HasEdge(3, 1) {
		t.Error("HasEdge not symmetric")
	}
	if w, ok := g.EdgeWeight(1, 3); !ok || w != 10 {
		t.Errorf("EdgeWeight(1,3) = %d,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(2, 3); ok {
		t.Error("EdgeWeight found nonexistent edge")
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Neighbors(1) = %v", got)
	}
	if g.Degree(1) != 2 || g.Degree(2) != 1 {
		t.Error("degrees wrong")
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if g.MinID() != 1 {
		t.Errorf("MinID = %d", g.MinID())
	}
}

func TestEdgeCanonicalOther(t *testing.T) {
	e := Edge{U: 5, V: 2, W: 7}
	c := e.Canonical()
	if c.U != 2 || c.V != 5 || c.W != 7 {
		t.Errorf("Canonical = %+v", c)
	}
	if e.Other(5) != 2 || e.Other(2) != 5 {
		t.Error("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other accepted non-endpoint")
		}
	}()
	e.Other(9)
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name      string
		g         *Graph
		wantN     int
		wantM     int
		connected bool
	}{
		{"path", Path(10), 10, 9, true},
		{"ring", Ring(10), 10, 10, true},
		{"star", Star(10), 10, 9, true},
		{"complete", Complete(6), 6, 15, true},
		{"grid", Grid(3, 4), 12, 17, true},
		{"caterpillar", Caterpillar(5, 2), 15, 14, true},
		{"lollipop", Lollipop(5, 4), 9, 14, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.g.N() != c.wantN {
				t.Errorf("N = %d, want %d", c.g.N(), c.wantN)
			}
			if c.g.M() != c.wantM {
				t.Errorf("M = %d, want %d", c.g.M(), c.wantM)
			}
			if c.g.Connected() != c.connected {
				t.Errorf("Connected = %v, want %v", c.g.Connected(), c.connected)
			}
		})
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(40) + 2
		g := RandomConnected(n, 0.2, rng)
		if g.N() != n {
			t.Fatalf("N = %d, want %d", g.N(), n)
		}
		if !g.Connected() {
			t.Fatal("RandomConnected produced a disconnected graph")
		}
		if !g.DistinctWeights() {
			t.Fatal("RandomConnected produced duplicate weights")
		}
		if g.M() < n-1 {
			t.Fatalf("M = %d < n-1", g.M())
		}
	}
}

func TestRandomGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := RandomGeometric(30, 0.25, rng)
		if g.N() != 30 {
			t.Fatalf("N = %d", g.N())
		}
		if !g.Connected() {
			t.Fatal("RandomGeometric not connected after stitching")
		}
		if !g.DistinctWeights() {
			t.Fatal("duplicate weights")
		}
	}
}

func TestHamiltonianWheel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := HamiltonianWheel(12, 6, rng)
	if !g.Connected() {
		t.Fatal("not connected")
	}
	if g.M() < 12 {
		t.Fatalf("M = %d, want >= 12", g.M())
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	dist, err := g.BFSDistances(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if dist[NodeID(i)] != i-1 {
			t.Errorf("dist[%d] = %d, want %d", i, dist[NodeID(i)], i-1)
		}
	}
	if _, err := g.BFSDistances(99); err == nil {
		t.Error("accepted unknown root")
	}
	// Unreachable nodes reported.
	g2 := New()
	g2.AddNode(1)
	g2.AddNode(2)
	if _, err := g2.BFSDistances(1); err == nil {
		t.Error("accepted disconnected graph")
	}
}

func TestEdgesSortedAndByWeight(t *testing.T) {
	g := New()
	g.MustAddEdge(2, 1, 30)
	g.MustAddEdge(3, 1, 10)
	g.MustAddEdge(2, 3, 20)
	es := g.Edges()
	if len(es) != 3 || es[0].U != 1 || es[0].V != 2 {
		t.Fatalf("Edges() = %v", es)
	}
	byW := g.EdgesByWeight()
	if byW[0].W != 10 || byW[1].W != 20 || byW[2].W != 30 {
		t.Fatalf("EdgesByWeight() = %v", byW)
	}
}

func TestClone(t *testing.T) {
	g := Ring(6)
	c := g.Clone()
	c.MustAddEdge(1, 4, 99)
	if g.HasEdge(1, 4) {
		t.Error("Clone shares adjacency with original")
	}
	if c.M() != g.M()+1 {
		t.Error("clone edge count wrong")
	}
}

func TestUnionFind(t *testing.T) {
	nodes := []NodeID{1, 2, 3, 4, 5}
	uf := NewUnionFind(nodes)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union(1, 2) {
		t.Error("Union(1,2) = false")
	}
	if uf.Union(2, 1) {
		t.Error("re-union reported a merge")
	}
	uf.Union(3, 4)
	uf.Union(1, 3)
	if uf.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", uf.Sets())
	}
	if !uf.Same(2, 4) {
		t.Error("Same(2,4) = false")
	}
	if uf.Same(2, 5) {
		t.Error("Same(2,5) = true")
	}
}

func TestDistinctWeightsDetectsDuplicates(t *testing.T) {
	g := New()
	g.MustAddEdge(1, 2, 7)
	g.MustAddEdge(2, 3, 7)
	if g.DistinctWeights() {
		t.Error("DistinctWeights missed a duplicate")
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.N() != 0 || g.M() != 0 || len(g.Edges()) != 0 || g.Dense().Slots() != 0 {
		t.Fatal("zero Graph is not empty")
	}
	var h Graph
	h.AddNode(3)
	h.MustAddEdge(2, 1, 10)
	h.MustAddEdge(3, 2, 20)
	if h.N() != 3 || h.M() != 2 {
		t.Fatalf("N=%d M=%d, want 3, 2", h.N(), h.M())
	}
	if want := []Edge{{1, 2, 10}, {2, 3, 20}}; !slices.Equal(h.Edges(), want) {
		t.Fatalf("Edges() = %v, want %v", h.Edges(), want)
	}
	d := h.Dense()
	if !slices.Equal(d.IDs(), []NodeID{1, 2, 3}) || !slices.Equal(d.NeighborIndices(1), []int32{0, 2}) {
		t.Fatalf("Dense slots %v, row of 2 %v", d.IDs(), d.NeighborIndices(1))
	}
}
