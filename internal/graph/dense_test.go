package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func TestDenseMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomConnected(60, 0.1, rng)
	d := g.Dense()
	if d.N() != g.N() {
		t.Fatalf("dense has %d nodes, graph %d", d.N(), g.N())
	}
	if !slices.IsSorted(d.IDs()) {
		t.Fatal("dense ids not sorted")
	}
	for i := 0; i < d.N(); i++ {
		v := d.ID(i)
		if j, ok := d.IndexOf(v); !ok || j != i {
			t.Fatalf("IndexOf(ID(%d)) = %d,%v", i, j, ok)
		}
		if got, want := d.NeighborIDs(i), g.NeighborsShared(v); !slices.Equal(got, want) {
			t.Fatalf("node %d: dense neighbors %v, graph %v", v, got, want)
		}
		if d.Degree(i) != g.Degree(v) {
			t.Fatalf("node %d: dense degree %d, graph %d", v, d.Degree(i), g.Degree(v))
		}
		idxs := d.NeighborIndices(i)
		wts := d.Weights(i)
		for k, u := range d.NeighborIDs(i) {
			if d.ID(int(idxs[k])) != u {
				t.Fatalf("node %d: neighbor index %d resolves to %d, want %d",
					v, idxs[k], d.ID(int(idxs[k])), u)
			}
			if w, _ := g.EdgeWeight(v, u); w != wts[k] {
				t.Fatalf("edge {%d,%d}: dense weight %d, graph %d", v, u, wts[k], w)
			}
		}
	}
	if _, ok := d.IndexOf(NodeID(10_000)); ok {
		t.Fatal("IndexOf accepted a non-node")
	}
}

// checkDenseMatches verifies that d mirrors g exactly: same live node
// set, same adjacency rows (identities, weights), and self-consistent
// slot cross-references.
func checkDenseMatches(t *testing.T, g *Graph, d *Dense) {
	t.Helper()
	if d.N() != g.N() {
		t.Fatalf("dense has %d live nodes, graph %d", d.N(), g.N())
	}
	live := 0
	for i := 0; i < d.Slots(); i++ {
		if !d.LiveAt(i) {
			if deg := d.Degree(i); deg != 0 {
				t.Fatalf("vacated slot %d has degree %d", i, deg)
			}
			continue
		}
		live++
		v := d.ID(i)
		if !g.HasNode(v) {
			t.Fatalf("slot %d holds %d, not a graph node", i, v)
		}
		if j, ok := d.IndexOf(v); !ok || j != i {
			t.Fatalf("IndexOf(%d) = %d,%v, want %d", v, j, ok, i)
		}
		if got, want := d.NeighborIDs(i), g.NeighborsShared(v); !slices.Equal(got, want) {
			t.Fatalf("node %d: dense neighbors %v, graph %v", v, got, want)
		}
		idxs := d.NeighborIndices(i)
		wts := d.Weights(i)
		for k, u := range d.NeighborIDs(i) {
			if d.ID(int(idxs[k])) != u {
				t.Fatalf("node %d: neighbor slot %d resolves to %d, want %d",
					v, idxs[k], d.ID(int(idxs[k])), u)
			}
			if w, _ := g.EdgeWeight(v, u); w != wts[k] {
				t.Fatalf("edge {%d,%d}: dense weight %d, graph %d", v, u, wts[k], w)
			}
			back := slices.Index(d.NeighborIDs(int(idxs[k])), v)
			if back < 0 || d.Weights(int(idxs[k]))[back] != wts[k] {
				t.Fatalf("arc %d->%d has no twin of weight %d in %d's row", v, u, wts[k], u)
			}
		}
	}
	if live != g.N() {
		t.Fatalf("%d live slots, graph has %d nodes", live, g.N())
	}
}

func TestDenseLiveMaintenance(t *testing.T) {
	g := New()
	g.MustAddEdge(1, 2, 10)
	d := g.Dense()
	if d != g.Dense() {
		t.Fatal("dense not cached between calls")
	}
	if d.Epoch() != 0 || !d.Sorted() {
		t.Fatal("fresh dense should be epoch 0 and sorted")
	}
	g.MustAddEdge(2, 3, 11)
	if g.Dense() != d {
		t.Fatal("AddEdge must maintain the dense layout in place, not invalidate it")
	}
	if d.Epoch() == 0 {
		t.Fatal("structural mutation did not bump the epoch")
	}
	checkDenseMatches(t, g, d)

	// Weight updates patch in place without a structural epoch bump.
	e := d.Epoch()
	if err := g.UpdateEdgeWeight(2, 3, 99); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != e {
		t.Fatal("weight update must not bump the structural epoch")
	}
	if i, _ := d.IndexOf(2); d.Weights(i)[slices.Index(d.NeighborIDs(i), NodeID(3))] != 99 {
		t.Fatal("weight update not visible through the dense layout")
	}

	// Node removal vacates the slot; a later join reuses it.
	slot3, _ := d.IndexOf(3)
	if err := g.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if d.Sorted() {
		t.Fatal("a vacated slot must clear the sorted flag")
	}
	checkDenseMatches(t, g, d)
	if _, ok := d.IndexOf(3); ok {
		t.Fatal("removed node still resolvable")
	}
	g.AddNode(7)
	if i, ok := d.IndexOf(7); !ok || i != slot3 {
		t.Fatalf("new node got slot %d,%v; want reuse of vacated slot %d", i, ok, slot3)
	}
	if d.Slots() != 3 {
		t.Fatalf("slot space grew to %d despite the free slot", d.Slots())
	}
	g.MustAddEdge(7, 1, 12)
	checkDenseMatches(t, g, d)
}

// TestDenseChurnRandomized churns a packed graph through every
// mutator against a reference edge set kept in a map, so a row edit
// that reaches past its own row shows up as a missing or stray edge.
func TestDenseChurnRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomConnected(40, 0.12, rng)
	d := g.Dense()
	model := make(map[Edge]bool) // canonical edges, weights included
	for _, e := range g.Edges() {
		model[e] = true
	}
	nodes := g.Nodes()
	check := func() {
		t.Helper()
		checkDenseMatches(t, g, d)
		want := make([]Edge, 0, len(model))
		for e := range model {
			want = append(want, e)
		}
		slices.SortFunc(want, func(a, b Edge) int {
			if a.U != b.U {
				return int(a.U - b.U)
			}
			return int(a.V - b.V)
		})
		if got := g.Edges(); !slices.Equal(got, want) {
			t.Fatalf("edges %v, want %v", got, want)
		}
		if !slices.Equal(g.Nodes(), nodes) {
			t.Fatalf("nodes %v, want %v", g.Nodes(), nodes)
		}
	}
	nextID := NodeID(1000)
	nextW := Weight(1 << 20)
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // add edge between existing nodes
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, nextW)
				model[Edge{u, v, nextW}.Canonical()] = true
				nextW++
			}
		case op < 7: // remove a random edge
			edges := g.Edges()
			if len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				if err := g.RemoveEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				delete(model, e)
			}
		case op < 8: // reweigh a random edge
			edges := g.Edges()
			if len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				if err := g.UpdateEdgeWeight(e.V, e.U, nextW); err != nil {
					t.Fatal(err)
				}
				delete(model, e)
				e.W = nextW
				model[e] = true
				nextW++
			}
		case op < 9: // leave
			if len(nodes) > 2 {
				v := nodes[rng.Intn(len(nodes))]
				if err := g.RemoveNode(v); err != nil {
					t.Fatal(err)
				}
				for e := range model {
					if e.U == v || e.V == v {
						delete(model, e)
					}
				}
				nodes = slices.DeleteFunc(nodes, func(u NodeID) bool { return u == v })
			}
		default: // join with one edge
			u := nodes[rng.Intn(len(nodes))]
			g.MustAddEdge(nextID, u, nextW)
			model[Edge{nextID, u, nextW}.Canonical()] = true
			nodes = append(nodes, nextID)
			nextID++
			nextW++
		}
		if step%250 == 0 {
			check()
		}
	}
	check()
	// The churned store holds the same rows as a fresh clone's.
	c := g.Clone()
	checkDenseMatches(t, c, d)
	checkDenseMatches(t, g, c.Dense())
	if g.Connected() != c.Connected() {
		t.Fatal("dense-backed Connected disagrees with a fresh clone")
	}
}

// sameSlots verifies that two Dense stores hold identical slot spaces:
// the same identity, neighbour identities, neighbour slots and weights
// at every slot.
func sameSlots(t *testing.T, got, want *Dense) {
	t.Helper()
	if !slices.Equal(got.IDs(), want.IDs()) {
		t.Fatalf("slot identities %v, want %v", got.IDs(), want.IDs())
	}
	for i := 0; i < got.Slots(); i++ {
		if !slices.Equal(got.NeighborIDs(i), want.NeighborIDs(i)) ||
			!slices.Equal(got.NeighborIndices(i), want.NeighborIndices(i)) ||
			!slices.Equal(got.Weights(i), want.Weights(i)) {
			t.Fatalf("slot %d: row (%v %v %v), want (%v %v %v)", i,
				got.NeighborIDs(i), got.NeighborIndices(i), got.Weights(i),
				want.NeighborIDs(i), want.NeighborIndices(i), want.Weights(i))
		}
	}
}

// TestFirstDenseAssignsIdentityOrder builds graphs by random mutation
// sequences in non-ascending identity order, removals included, and
// checks that the first Dense() numbers the slots in ascending identity
// order with no holes, at epoch zero, exactly as a fresh clone's does.
func TestFirstDenseAssignsIdentityOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		g := New()
		w := Weight(1)
		for step := 0; step < 1+rng.Intn(120); step++ {
			u, v := NodeID(1+rng.Intn(30)), NodeID(1+rng.Intn(30))
			switch op := rng.Intn(10); {
			case op < 2:
				g.AddNode(u)
			case op < 6:
				if u != v {
					g.MustAddEdge(u, v, w)
					w++
				}
			case op < 8:
				if g.HasEdge(u, v) {
					if err := g.RemoveEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			default:
				if g.HasNode(u) {
					if err := g.RemoveNode(u); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		d := g.Dense()
		if d.Slots() != g.N() || d.N() != g.N() || !slices.Equal(d.IDs(), g.Nodes()) {
			t.Fatalf("trial %d: slots %v, want the sorted nodes %v", trial, d.IDs(), g.Nodes())
		}
		if !d.Sorted() || d.Epoch() != 0 || d.NodeEpoch() != 0 {
			t.Fatalf("trial %d: sorted=%v epoch=%d nodeEpoch=%d, want true 0 0",
				trial, d.Sorted(), d.Epoch(), d.NodeEpoch())
		}
		checkDenseMatches(t, g, d)
		sameSlots(t, d, g.Clone().Dense())
	}
}

func TestDenseWeightUpdatePacked(t *testing.T) {
	g := Ring(5)
	d := g.Dense()
	i, _ := d.IndexOf(2)
	wts := d.Weights(i)
	j := slices.Index(d.NeighborIDs(i), NodeID(3))
	if err := g.UpdateEdgeWeight(3, 2, 77); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 0 {
		t.Fatalf("weight update bumped the epoch to %d", d.Epoch())
	}
	if wts[j] != 77 {
		t.Fatalf("weight slice read before the update holds %d, want 77", wts[j])
	}
	if w, _ := g.EdgeWeight(2, 3); w != 77 {
		t.Fatalf("EdgeWeight(2,3) = %d, want 77", w)
	}
	if err := g.UpdateEdgeWeight(1, 3, 5); err == nil {
		t.Fatal("UpdateEdgeWeight accepted an absent edge")
	}
	checkDenseMatches(t, g, d)
}

// TestDenseResidentBytesPerEdge pins the graph's resident size to one
// adjacency copy: a built RandomConnected(20000, 8/n) graph with its
// Dense holds at most 64 B of live heap per edge (the CSR arrays need
// 40).
func TestDenseResidentBytesPerEdge(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := 20000
	g := RandomConnected(n, 8/float64(n), rand.New(rand.NewSource(1)))
	g.Dense()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEdge := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(g.M())
	runtime.KeepAlive(g)
	t.Logf("%d edges, %.1f B of live heap per edge", g.M(), perEdge)
	if perEdge > 64 {
		t.Fatalf("%.1f B of live heap per edge, want at most 64", perEdge)
	}
}
