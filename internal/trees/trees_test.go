package trees

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"silentspan/internal/graph"
)

func mustBFS(t *testing.T, g *graph.Graph, root graph.NodeID) *Tree {
	t.Helper()
	tr, err := BFSTree(g, root)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFromParentMapValid(t *testing.T) {
	tr, err := FromParentMap(map[graph.NodeID]graph.NodeID{
		1: None, 2: 1, 3: 1, 4: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != 1 || tr.N() != 4 {
		t.Fatalf("root=%d n=%d", tr.Root(), tr.N())
	}
	if tr.Parent(4) != 2 {
		t.Errorf("Parent(4) = %d", tr.Parent(4))
	}
}

func TestFromParentMapRejects(t *testing.T) {
	cases := []struct {
		name string
		pm   map[graph.NodeID]graph.NodeID
	}{
		{"no root", map[graph.NodeID]graph.NodeID{1: 2, 2: 1}},
		{"two roots", map[graph.NodeID]graph.NodeID{1: None, 2: None}},
		{"cycle", map[graph.NodeID]graph.NodeID{1: None, 2: 3, 3: 4, 4: 2}},
		{"dangling parent", map[graph.NodeID]graph.NodeID{1: None, 2: 9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := FromParentMap(c.pm); err == nil {
				t.Errorf("FromParentMap accepted %v", c.pm)
			}
		})
	}
}

func TestFromEdges(t *testing.T) {
	type P = map[graph.NodeID]graph.NodeID
	for _, tc := range []struct {
		name  string
		root  graph.NodeID
		edges []graph.Edge
		want  P // nil: rejected
	}{
		{"single node", 4, nil, P{4: None}},
		{"path from its middle", 2, []graph.Edge{{U: 3, V: 2}, {U: 1, V: 2}, {U: 4, V: 3}}, P{2: None, 1: 2, 3: 2, 4: 3}},
		{"star from a leaf", 3, []graph.Edge{{U: 1, V: 4}, {U: 1, V: 2}, {U: 3, V: 1}}, P{3: None, 1: 3, 2: 1, 4: 1}},
		{"cycle", 1, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 1}}, nil},
		{"edge listed twice", 1, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 1}}, nil},
		{"self-loop", 1, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 2}}, nil},
		{"forest", 1, []graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}}, nil},
		{"root absent", 9, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}}, nil},
	} {
		tr, err := FromEdges(tc.root, tc.edges)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: accepted as %v", tc.name, tr.ParentMap())
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if tr.Root() != tc.root || !maps.Equal(tr.ParentMap(), tc.want) {
			t.Errorf("%s: root %d parents %v, want root %d parents %v", tc.name, tr.Root(), tr.ParentMap(), tc.root, tc.want)
		}
		for v := range tc.want {
			if cs := tr.Children(v); !slices.IsSorted(cs) {
				t.Errorf("%s: children of %d not ascending: %v", tc.name, v, cs)
			}
		}
	}
}

func TestChildrenDegreeDepth(t *testing.T) {
	tr, err := FromParentMap(map[graph.NodeID]graph.NodeID{
		1: None, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs := tr.Children(2); len(cs) != 2 || cs[0] != 4 || cs[1] != 5 {
		t.Errorf("Children(2) = %v", cs)
	}
	if tr.Degree(1) != 2 || tr.Degree(2) != 3 || tr.Degree(6) != 1 {
		t.Error("degrees wrong")
	}
	if tr.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", tr.MaxDegree())
	}
	if tr.DegreeCount(3) != 1 || tr.DegreeCount(1) != 3 {
		t.Errorf("DegreeCount: %d, %d", tr.DegreeCount(3), tr.DegreeCount(1))
	}
	if tr.Depth(6) != 2 || tr.Depth(1) != 0 {
		t.Error("depths wrong")
	}
	depths := tr.Depths()
	for _, v := range tr.Nodes() {
		if depths[v] != tr.Depth(v) {
			t.Errorf("Depths()[%d] = %d, want %d", v, depths[v], tr.Depth(v))
		}
	}
}

func TestSubtreeSizes(t *testing.T) {
	tr, err := FromParentMap(map[graph.NodeID]graph.NodeID{
		1: None, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := tr.SubtreeSizes()
	want := map[graph.NodeID]int{1: 6, 2: 3, 3: 2, 4: 1, 5: 1, 6: 1}
	for v, s := range want {
		if sizes[v] != s {
			t.Errorf("size[%d] = %d, want %d", v, sizes[v], s)
		}
	}
}

func TestNCAAndTreePath(t *testing.T) {
	tr, err := FromParentMap(map[graph.NodeID]graph.NodeID{
		1: None, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		u, v, want graph.NodeID
	}{
		{4, 5, 2}, {4, 7, 1}, {6, 7, 6}, {1, 7, 1}, {4, 4, 4},
	}
	for _, c := range cases {
		if got := tr.NCA(c.u, c.v); got != c.want {
			t.Errorf("NCA(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
		}
	}
	path := tr.TreePath(4, 7)
	want := []graph.NodeID{4, 2, 1, 3, 6, 7}
	if len(path) != len(want) {
		t.Fatalf("TreePath(4,7) = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("TreePath(4,7) = %v, want %v", path, want)
		}
	}
}

func TestFundamentalCycleAndSwap(t *testing.T) {
	g := graph.Ring(6)
	tr := mustBFS(t, g, 1)
	// In the BFS tree of a 6-ring rooted at 1, the edge closing the cycle
	// is the unique non-tree edge.
	nte := tr.NonTreeEdges(g)
	if len(nte) != 1 {
		t.Fatalf("non-tree edges = %v", nte)
	}
	e := nte[0]
	cyc := tr.FundamentalCycle(e)
	if len(cyc) != 6 {
		t.Fatalf("fundamental cycle of ring spans %d nodes, want 6", len(cyc))
	}
	ces := tr.CycleEdges(e)
	if len(ces) != 5 {
		t.Fatalf("cycle tree-edges = %d, want 5", len(ces))
	}
	for _, f := range ces {
		nt, err := tr.Swap(e, f)
		if err != nil {
			t.Fatalf("Swap(%v,%v): %v", e, f, err)
		}
		if !nt.IsSpanningTreeOf(g) {
			t.Fatalf("Swap(%v,%v) result not a spanning tree", e, f)
		}
		if nt.Root() != tr.Root() {
			t.Error("Swap changed the root")
		}
		if nt.HasEdge(f.U, f.V) {
			t.Error("Swap kept removed edge")
		}
		if !nt.HasEdge(e.U, e.V) {
			t.Error("Swap lost added edge")
		}
	}
}

func TestSwapRejectsOffCycleEdge(t *testing.T) {
	g := graph.New()
	// Square 1-2-3-4 plus pendant 5 on 1.
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 2)
	g.MustAddEdge(3, 4, 3)
	g.MustAddEdge(4, 1, 4)
	g.MustAddEdge(1, 5, 5)
	tr := mustBFS(t, g, 1)
	nte := tr.NonTreeEdges(g)
	if len(nte) != 1 {
		t.Fatalf("non-tree edges = %v", nte)
	}
	// Pendant edge {1,5} is not on the fundamental cycle.
	if _, err := tr.Swap(nte[0], graph.Edge{U: 1, V: 5}); err == nil {
		t.Error("Swap accepted an off-cycle edge")
	}
}

func TestReroot(t *testing.T) {
	tr, err := FromParentMap(map[graph.NodeID]graph.NodeID{
		1: None, 2: 1, 3: 2, 4: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr := tr.Reroot(4)
	if rr.Root() != 4 || rr.Parent(4) != None {
		t.Fatalf("reroot: root=%d", rr.Root())
	}
	if rr.Parent(1) != 2 || rr.Parent(2) != 3 || rr.Parent(3) != 4 {
		t.Errorf("reroot parents: %v", rr.ParentMap())
	}
	// Original unchanged.
	if tr.Root() != 1 {
		t.Error("Reroot mutated receiver")
	}
}

func TestBFSTreeAndIsBFSTree(t *testing.T) {
	g := graph.Grid(4, 5)
	tr := mustBFS(t, g, 1)
	if !tr.IsSpanningTreeOf(g) {
		t.Fatal("BFS tree not spanning")
	}
	if !IsBFSTree(tr, g) {
		t.Fatal("BFSTree output fails IsBFSTree")
	}
	// A DFS tree of a grid is generally not a BFS tree.
	dt, err := DFSTree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if IsBFSTree(dt, g) {
		t.Error("DFS tree of a grid unexpectedly BFS")
	}
}

func TestRandomSpanningTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(30, 0.2, rng)
	for trial := 0; trial < 10; trial++ {
		tr, err := RandomSpanningTree(g, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.IsSpanningTreeOf(g) {
			t.Fatal("random tree not spanning")
		}
	}
}

func TestDisconnectedErrors(t *testing.T) {
	g := graph.New()
	g.AddNode(1)
	g.AddNode(2)
	if _, err := BFSTree(g, 1); err == nil {
		t.Error("BFSTree accepted disconnected graph")
	}
	if _, err := DFSTree(g, 1); err == nil {
		t.Error("DFSTree accepted disconnected graph")
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomSpanningTree(g, 1, rng); err == nil {
		t.Error("RandomSpanningTree accepted disconnected graph")
	}
}

func TestWeightAndNonTreeEdges(t *testing.T) {
	g := graph.Ring(4)
	tr := mustBFS(t, g, 1)
	w, err := tr.Weight(g)
	if err != nil {
		t.Fatal(err)
	}
	// Ring(4) weights 1,2,3,4; BFS tree drops exactly one edge.
	total := graph.Weight(1 + 2 + 3 + 4)
	nte := tr.NonTreeEdges(g)
	if len(nte) != 1 {
		t.Fatalf("non-tree edges: %v", nte)
	}
	if w != total-nte[0].W {
		t.Errorf("tree weight %d + non-tree %d != %d", w, nte[0].W, total)
	}
}

func TestHeavyPathDecomposition(t *testing.T) {
	// Caterpillar: spine 1-2-3-4-5 with legs; spine should be one heavy path.
	g := graph.Caterpillar(5, 1)
	tr := mustBFS(t, g, 1)
	d := Decompose(tr)
	if d.Head(1) != 1 {
		t.Errorf("Head(1) = %d", d.Head(1))
	}
	// Spine nodes 1..5 share a head (the root's path follows max subtree).
	h := d.Head(5)
	for _, v := range []graph.NodeID{1, 2, 3, 4, 5} {
		if d.Head(v) != h {
			t.Errorf("spine node %d has head %d, want %d", v, d.Head(v), h)
		}
	}
	if d.Pos(1) != 0 {
		t.Errorf("Pos(root) = %d", d.Pos(1))
	}
	// Positions increase along the path.
	path := d.Path(h)
	for i, v := range path {
		if d.Pos(v) != i {
			t.Errorf("Pos(%d) = %d, want %d", v, d.Pos(v), i)
		}
	}
}

func TestLightDepthLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(150)
		g := graph.RandomConnected(n, 0.1, rng)
		tr, err := RandomSpanningTree(g, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		d := Decompose(tr)
		bound := log2floor(n)
		for _, v := range tr.Nodes() {
			if ld := d.LightDepth(v); ld > bound {
				t.Fatalf("n=%d: LightDepth(%d) = %d > floor(log2 n) = %d", n, v, ld, bound)
			}
		}
	}
}

func TestOffPathWeightsSumToHeadSize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomConnected(60, 0.1, rng)
	tr, err := RandomSpanningTree(g, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := Decompose(tr)
	for _, h := range d.Heads() {
		sum := 0
		for _, v := range d.Path(h) {
			sum += d.OffPathWeight(v)
		}
		if sum != d.SubtreeSize(h) {
			t.Errorf("head %d: off-path weights sum to %d, want %d", h, sum, d.SubtreeSize(h))
		}
	}
}

func log2floor(n int) int {
	l := 0
	for n > 1 {
		n /= 2
		l++
	}
	return l
}
