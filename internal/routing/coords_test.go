package routing

import (
	"math/rand"
	"testing"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

func TestCoordsDistMatchesTreePath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(40, 0.15, rng)
		tree, err := trees.RandomSpanningTree(g, g.MinID(), rng)
		if err != nil {
			t.Fatal(err)
		}
		lab := Label(tree)
		if err := lab.Verify(tree); err != nil {
			t.Fatal(err)
		}
		nodes := tree.Nodes()
		for i := 0; i < 100; i++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			want := len(tree.TreePath(u, v)) - 1
			got, ok := lab.TreeDist(u, v)
			if !ok {
				t.Fatalf("no distance for %d -> %d", u, v)
			}
			if got != want {
				t.Errorf("TreeDist(%d, %d) = %d, tree path length %d", u, v, got, want)
			}
		}
	}
}

func TestCoordsAncestorMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(30, 0.2, rng)
	tree, err := trees.RandomSpanningTree(g, g.MinID(), rng)
	if err != nil {
		t.Fatal(err)
	}
	lab := Label(tree)
	isAncestor := func(u, v graph.NodeID) bool {
		for x := v; ; x = tree.Parent(x) {
			if x == u {
				return true
			}
			if x == tree.Root() {
				return false
			}
		}
	}
	for _, u := range tree.Nodes() {
		for _, v := range tree.Nodes() {
			if got, want := lab.IsAncestor(u, v), isAncestor(u, v); got != want {
				t.Errorf("IsAncestor(%d, %d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestCoordsEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Coords{
		{},
		{0},
		{0, 0, 0},
		{5, 0, 17, 2},
		{1000, 3, 0},
	}
	for _, c := range cases {
		enc := c.Encode()
		if enc.Len() != c.EncodedBits() {
			t.Errorf("%v: Encode len %d != EncodedBits %d", c, enc.Len(), c.EncodedBits())
		}
		got, err := DecodeCoords(bits.NewReader(enc))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !got.Equal(c) {
			t.Errorf("round trip: got %v, want %v", got, c)
		}
	}
}

func TestCoordsEncodeSelfDelimiting(t *testing.T) {
	// Two coords concatenated decode back as two coords.
	a, b := Coords{3, 1}, Coords{0, 7, 2}
	r := bits.NewReader(a.Encode().Concat(b.Encode()))
	gotA, err := DecodeCoords(r)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := DecodeCoords(r)
	if err != nil {
		t.Fatal(err)
	}
	if !gotA.Equal(a) || !gotB.Equal(b) {
		t.Errorf("got %v %v, want %v %v", gotA, gotB, a, b)
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bits left over", r.Remaining())
	}
}

func TestLabelBitsLogarithmic(t *testing.T) {
	// On bounded-degree-ish random graphs the encoded coordinate is
	// O(depth * log degree) = O(log² n)-ish; assert a generous bound so
	// regressions to unary-style blowups are caught.
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnected(1024, 0.01, rng)
	tree, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	lab := Label(tree)
	ix := trees.NewIndex(tree)
	bound := 2 * (ix.Height() + 1) * 12 // gamma(port) ≤ ~2 log port + 1
	if got := lab.MaxLabelBits(); got > bound {
		t.Errorf("max label bits %d > bound %d (height %d)", got, bound, ix.Height())
	}
}

func TestLiveLabelingOnBrokenPointers(t *testing.T) {
	// A 6-node path 1-2-3-4-5-6 with pointers broken at 4 (cycle with 5)
	// and a second root at 6.
	g := graph.Path(6)
	parent := map[graph.NodeID]graph.NodeID{
		1: trees.None,
		2: 1,
		3: 2,
		4: 5, // cycle 4 <-> 5
		5: 4,
		6: trees.None, // second claimed root
	}
	lab := LiveLabeling(g, ParentsFromMap(g, parent))
	if lab.Complete() {
		t.Fatal("broken labeling reported complete")
	}
	// 1, 2, 3 labeled under root 1; 6 under root 6; 4 and 5 unlabeled.
	for _, v := range []graph.NodeID{1, 2, 3} {
		if r, ok := lab.RootOf(v); !ok || r != 1 {
			t.Errorf("node %d: root %d ok=%v, want root 1", v, r, ok)
		}
	}
	if r, ok := lab.RootOf(6); !ok || r != 6 {
		t.Errorf("node 6: root %d ok=%v, want root 6", r, ok)
	}
	for _, v := range []graph.NodeID{4, 5} {
		if _, ok := lab.Coords(v); ok {
			t.Errorf("cycle node %d got a coordinate", v)
		}
	}
	// Cross-space distance must be refused.
	if _, ok := lab.TreeDist(1, 6); ok {
		t.Error("TreeDist across coordinate spaces succeeded")
	}
	if d, ok := lab.TreeDist(1, 3); !ok || d != 2 {
		t.Errorf("TreeDist(1,3) = %d ok=%v, want 2", d, ok)
	}
}

func TestLiveLabelingIgnoresNonNeighborParents(t *testing.T) {
	g := graph.Path(4) // 1-2-3-4
	parent := map[graph.NodeID]graph.NodeID{
		1: trees.None,
		2: 1,
		3: 1, // 3 claims parent 1, but {1,3} is not an edge
		4: 3,
	}
	lab := LiveLabeling(g, ParentsFromMap(g, parent))
	if _, ok := lab.Coords(3); ok {
		t.Error("node 3 with non-neighbor parent got a coordinate")
	}
	if _, ok := lab.Coords(4); ok {
		t.Error("node 4 under a discredited parent got a coordinate")
	}
	if c, ok := lab.Coords(2); !ok || len(c) != 1 {
		t.Errorf("node 2 coords %v ok=%v, want length-1 path", c, ok)
	}
}

// TestLabelRefusesWrappedPorts: ports are 16 bits, so under the hub of
// Star(65538) the 65 537th child, node 65538, has no port left. It and
// its subtree get no coordinate — in Label, LiveLabeling and the
// incremental labeler alike — instead of sharing node 2's wrapped /0,
// which left the labeling "complete" and Route(65538, 2) a dead end.
func TestLabelRefusesWrappedPorts(t *testing.T) {
	const last = graph.NodeID(65538)
	g := graph.Star(int(last))
	g.MustAddEdge(last, last+1, 1<<20) // a subtree below the portless child
	tree, err := trees.BFSTree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	parents := ParentsFromMap(g, tree.ParentMap())
	for name, lab := range map[string]*Labeling{"Label": Label(tree), "LiveLabeling": LiveLabeling(g, parents)} {
		for _, v := range []graph.NodeID{last, last + 1} {
			if c, ok := lab.Coords(v); ok {
				t.Errorf("%s: node %d past the last port labeled %v", name, v, c)
			}
		}
		if c, ok := lab.Coords(last - 1); !ok || !c.Equal(Coords{Port(maxPort)}) {
			t.Errorf("%s: node %d labeled %v %v, want /%d", name, last-1, c, ok, maxPort)
		}
		if lab.Complete() || lab.Covered() != g.N()-2 {
			t.Errorf("%s: complete=%v covering %d of %d", name, lab.Complete(), lab.Covered(), g.N())
		}
		if err := lab.Verify(tree); err == nil {
			t.Errorf("%s: Verify accepted a labeling missing the portless subtree", name)
		}
		r := NewRouter(g, lab, Options{})
		if d := r.Route(last, 2); d.Reason != DropNoSourceCoord {
			t.Errorf("%s: Route(%d, 2) = %v, want %v", name, last, d.Reason, DropNoSourceCoord)
		}
		if d := r.Route(last-1, 2); !d.Delivered || d.Hops != 2 {
			t.Errorf("%s: Route(%d, 2) delivered=%v in %d hops, want 2", name, last-1, d.Delivered, d.Hops)
		}
	}

	// Incrementally: leaving the first leaf shifts every port down by
	// one, so the portless child and its subtree come into range; its
	// return pushes them out again.
	lb := NewLiveLabeler(g, parents)
	lb.SetParent(2, NoParent)
	if c, ok := lb.Labeling().Coords(last + 1); !ok || !c.Equal(Coords{Port(maxPort), 0}) {
		t.Fatalf("after node 2 left the hub, node %d labeled %v %v, want /%d/0", last+1, c, ok, maxPort)
	}
	lb.SetParent(2, 1)
	compareToRebuild(t, 0, g, lb)
	if _, ok := lb.Labeling().Coords(last + 1); ok {
		t.Fatalf("node %d kept a coordinate after its parent lost its port", last+1)
	}
}

// TestLabelAllocsIndependentOfN pins the writers' allocations: Label
// and a LiveLabeler rebuild make the same small number of allocations
// at n = 2 000 and n = 20 000, none of them per node — the label
// records, rows and arena are each one array. A grid's BFS tree from a
// corner is deep enough to spill into the arena.
func TestLabelAllocsIndependentOfN(t *testing.T) {
	var label, rebuild []float64
	for _, g := range []*graph.Graph{graph.Grid(40, 50), graph.Grid(100, 200)} {
		tree, err := trees.BFSTree(g, g.MinID())
		if err != nil {
			t.Fatal(err)
		}
		lb := NewLiveLabeler(g, ParentsFromMap(g, tree.ParentMap()))
		if len(lb.lab.arena) == 0 {
			t.Fatal("the grid's BFS tree spills no port into the arena")
		}
		label = append(label, testing.AllocsPerRun(3, func() { Label(tree) }))
		rebuild = append(rebuild, testing.AllocsPerRun(3, lb.rebuild))
	}
	t.Logf("allocations at n = 2 000, 20 000: Label %v, rebuild %v", label, rebuild)
	for _, a := range [][]float64{label, rebuild} {
		if a[0] != a[1] || a[1] > 16 {
			t.Errorf("allocations %v: want one count at both sizes, at most 16", a)
		}
	}
}
