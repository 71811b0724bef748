package trees

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"silentspan/internal/graph"
)

// checkChildLists compares the tree's child lists and every quantity
// read off them with brute-force values from ParentMap.
func checkChildLists(t *testing.T, name string, tr *Tree) {
	t.Helper()
	parent := tr.ParentMap()
	kids := map[graph.NodeID][]graph.NodeID{}
	for v, p := range parent {
		if p != None {
			kids[p] = append(kids[p], v)
		}
	}
	size := map[graph.NodeID]int{}
	for v := range parent {
		for x := v; x != None; x = parent[x] {
			size[x]++
		}
	}
	maxDeg, count := 0, map[int]int{}
	for _, v := range tr.Nodes() {
		slices.Sort(kids[v])
		if got := tr.Children(v); !slices.Equal(got, kids[v]) {
			t.Fatalf("%s: Children(%d) = %v, want %v", name, v, got, kids[v])
		}
		deg := len(kids[v])
		if parent[v] != None {
			deg++
		}
		if got := tr.Degree(v); got != deg {
			t.Fatalf("%s: Degree(%d) = %d, want %d", name, v, got, deg)
		}
		maxDeg = max(maxDeg, deg)
		count[deg]++
		// The returned slice is the caller's: writing it leaves the tree alone.
		if cs := tr.Children(v); len(cs) > 0 {
			cs[0] = None
			if got := tr.Children(v); !slices.Equal(got, kids[v]) {
				t.Fatalf("%s: writing Children(%d)'s result changed the tree: %v", name, v, got)
			}
		}
	}
	if got := tr.MaxDegree(); got != maxDeg {
		t.Fatalf("%s: MaxDegree = %d, want %d", name, got, maxDeg)
	}
	for d := 0; d <= maxDeg+1; d++ {
		if got := tr.DegreeCount(d); got != count[d] {
			t.Fatalf("%s: DegreeCount(%d) = %d, want %d", name, d, got, count[d])
		}
	}
	if got := tr.SubtreeSizes(); !maps.Equal(got, size) {
		t.Fatalf("%s: SubtreeSizes = %v, want %v", name, got, size)
	}
}

// TestChildListsMatchParentMap: the child lists every constructor builds,
// and every later AddChild keeps, agree with the parent map.
func TestChildListsMatchParentMap(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(2+rng.Intn(30), 0.2, rng)
		root := g.MinID()

		// NewTree + AddChild in random order, so that lists are both
		// appended to and inserted into.
		grown := NewTree(root)
		rest := g.Nodes()[1:]
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		for _, v := range rest {
			nodes := grown.Nodes()
			grown.AddChild(nodes[rng.Intn(len(nodes))], v)
			checkChildLists(t, "NewTree+AddChild", grown)
		}

		bfs, err := BFSTree(g, root)
		if err != nil {
			t.Fatal(err)
		}
		dfs, err := DFSTree(g, root)
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := RandomSpanningTree(g, root, rng)
		if err != nil {
			t.Fatal(err)
		}
		fromMap, err := FromParentMap(rnd.ParentMap())
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		built := map[string]*Tree{
			"BFSTree": bfs, "DFSTree": dfs, "RandomSpanningTree": rnd,
			"FromParentMap": fromMap, "Clone": grown.Clone(),
			"Reroot": rnd.Reroot(nodes[rng.Intn(len(nodes))]),
		}
		if nte := rnd.NonTreeEdges(g); len(nte) > 0 {
			e := nte[rng.Intn(len(nte))]
			ces := rnd.CycleEdges(e)
			swapped, err := rnd.Swap(e, ces[rng.Intn(len(ces))])
			if err != nil {
				t.Fatal(err)
			}
			built["Swap"] = swapped
		}
		for name, tr := range built {
			checkChildLists(t, name, tr)
		}
	}
}

// TestChildListSnapshots: an Index and a Clone taken before AddChild keep
// reading the children they had, whether AddChild appends to a list or
// inserts into it; the two sides of a Clone grow independently; and an
// append to a list an Index hands out leaves the tree alone.
func TestChildListSnapshots(t *testing.T) {
	// Three appends leave spare capacity behind each list.
	tr := NewTree(1)
	for _, e := range [][2]graph.NodeID{{1, 3}, {1, 4}, {1, 6}, {4, 10}, {4, 12}, {4, 14}} {
		tr.AddChild(e[0], e[1])
	}
	ix := NewIndex(tr)
	clone := tr.Clone()

	tr.AddChild(1, 8)  // past the end
	tr.AddChild(4, 11) // into the middle
	tr.AddChild(6, 7)  // a new list
	clone.AddChild(1, 9)
	_ = append(ix.Children(1), 99) // must copy, not write into the tree's list

	for _, c := range []struct {
		name string
		got  []graph.NodeID
		want []graph.NodeID
	}{
		{"Index 1", ix.Children(1), []graph.NodeID{3, 4, 6}},
		{"Index 4", ix.Children(4), []graph.NodeID{10, 12, 14}},
		{"Index 6", ix.Children(6), nil},
		{"tree 1", tr.Children(1), []graph.NodeID{3, 4, 6, 8}},
		{"tree 4", tr.Children(4), []graph.NodeID{10, 11, 12, 14}},
		{"tree 6", tr.Children(6), []graph.NodeID{7}},
		{"clone 1", clone.Children(1), []graph.NodeID{3, 4, 6, 9}},
		{"clone 4", clone.Children(4), []graph.NodeID{10, 12, 14}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: children %v, want %v", c.name, c.got, c.want)
		}
	}
	if ix.Height() != 2 || len(ix.BFSOrder()) != 7 {
		t.Errorf("Index height %d over %d nodes, want 2 over 7", ix.Height(), len(ix.BFSOrder()))
	}
	checkChildLists(t, "grown", tr)
	checkChildLists(t, "clone", clone)
}
