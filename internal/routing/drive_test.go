package routing

import (
	"math"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

// TestDriveParallelismIndependent: Drive shards a batch over
// GOMAXPROCS workers and folds the outcomes in pair order, so its Stats
// are the same at 1, 2 and 4 workers — MeanStretch bit for bit — and
// agree with routing the pairs one by one through Route. Both a
// complete labeling with stretch measured and a decayed LiveLabeling
// dropping packets for several reasons are checked.
func TestDriveParallelismIndependent(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	const n = 2000
	rng := rand.New(rand.NewSource(40))
	g := graph.RandomConnected(n, 6/float64(n), rng)
	tree, err := trees.RandomSpanningTree(g, g.MinID(), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Decay a BFS tree's pointers: extra root claims split the
	// coordinate spaces (no-dest-coord), pointers at a non-neighbor or at
	// nothing unlabel whole subtrees (no-source-coord), and a short hop
	// budget cuts the long routes (ttl).
	bfsTree, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	parent := bfsTree.ParentMap()
	nodes := g.Nodes()
	for k := 0; k < 30; k++ {
		v := nodes[rng.Intn(len(nodes))]
		switch k % 3 {
		case 0:
			parent[v] = trees.None
		case 1:
			parent[v] = v
		default:
			delete(parent, v)
		}
	}
	pairs := UniformPairs(nodes, 3000, rng)
	cases := []struct {
		name    string
		r       *Router
		opt     DriveOptions
		reasons int // distinct drop reasons the batch must show
	}{
		{"complete", NewRouter(g, Label(tree), Options{}), DriveOptions{}, 0},
		{"decayed", NewRouter(g, LiveLabeling(g, ParentsFromMap(g, parent)), Options{MaxHops: 5}), DriveOptions{MaxExactSources: 64}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want Stats
			for _, procs := range []int{1, 2, 4} {
				goruntime.GOMAXPROCS(procs)
				got, err := Drive(c.r, pairs, c.opt)
				if err != nil {
					t.Fatal(err)
				}
				if procs > 1 {
					if !reflect.DeepEqual(got, want) || math.Float64bits(got.MeanStretch) != math.Float64bits(want.MeanStretch) {
						t.Errorf("%d workers: %+v\n1 worker: %+v", procs, got, want)
					}
					continue
				}
				want = got
				seq := Stats{Sent: len(pairs), DropByReason: map[DropReason]int{}}
				for _, p := range pairs {
					if d := c.r.Route(p.Src, p.Dst); d.Delivered {
						seq.Delivered++
						seq.HopSum += d.Hops
					} else {
						seq.Dropped++
						seq.DropByReason[d.Reason]++
					}
				}
				if got.Sent != seq.Sent || got.Delivered != seq.Delivered || got.Dropped != seq.Dropped ||
					got.HopSum != seq.HopSum || !reflect.DeepEqual(got.DropByReason, seq.DropByReason) {
					t.Errorf("Drive %+v, one Route per pair %+v", got, seq)
				}
				if len(got.DropByReason) < c.reasons {
					t.Errorf("drops %v: want at least %d reasons", got.DropByReason, c.reasons)
				}
				if c.reasons == 0 && (got.Delivered != got.Sent || got.StretchSamples == 0) {
					t.Errorf("complete labeling: %v", got)
				}
			}
		})
	}
}

// TestAlignedLookupMatchesIdentity: on a graph churned until slots are
// recycled (an unsorted Dense), the slot-aligned router resolves every
// (cur, dst) to the same decision as the identity path over the same
// labeling. A labeling then held across a leave and a join that
// recycles the vacated slot — no SetLabeling in between — must still
// agree with the identity path, and never forward to a node the graph
// no longer holds or the labeling never saw.
func TestAlignedLookupMatchesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.RandomConnected(60, 0.12, rng)
	g.Dense()
	w := graph.Weight(1 << 20)
	join := func(id graph.NodeID, links int) {
		g.AddNode(id)
		nodes := g.Nodes()
		for k := 0; k < links; k++ {
			if u := nodes[rng.Intn(len(nodes))]; u != id && !g.HasEdge(id, u) {
				g.MustAddEdge(id, u, w)
				w++
			}
		}
	}
	for k := 0; k < 12; k++ {
		nodes := g.Nodes()
		if err := g.RemoveNode(nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
		join(graph.NodeID(1000+k), 4)
	}
	if g.Dense().Sorted() || !g.Connected() {
		t.Fatalf("churn left sorted=%v connected=%v; pick another seed", g.Dense().Sorted(), g.Connected())
	}
	tree, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	parents := ParentsFromMap(g, tree.ParentMap())
	r := NewRouter(g, LiveLabeling(g, parents), Options{})
	if !r.aligned {
		t.Fatal("a LiveLabeling of the current slot space is not aligned")
	}
	ident := *r
	ident.aligned = false
	agree := func(stage string, ids []graph.NodeID) {
		t.Helper()
		for _, cur := range ids {
			for _, dst := range ids {
				next, reason, ok := r.NextHop(cur, dst)
				wn, wr, wok := ident.NextHop(cur, dst)
				if next != wn || reason != wr || ok != wok {
					t.Fatalf("%s: NextHop(%d, %d) = %d %v %v, identity path %d %v %v",
						stage, cur, dst, next, reason, ok, wn, wr, wok)
				}
				if _, known := r.lab.Coords(next); ok && (!g.HasEdge(cur, next) || !known) {
					t.Fatalf("%s: NextHop(%d, %d) forwards to %d: edge=%v labeled=%v",
						stage, cur, dst, next, g.HasEdge(cur, next), known)
				}
				if d, wd := r.Route(cur, dst), ident.Route(cur, dst); !reflect.DeepEqual(d, wd) {
					t.Fatalf("%s: Route %+v, identity path %+v", stage, d, wd)
				}
			}
		}
	}
	agree("aligned", g.Nodes())

	// Hold the labeling across a leave, then a join that takes the
	// vacated slot and links to a third of the graph: the slot still
	// carries the departed node's coordinate in the held labeling.
	nodes := g.Nodes()
	victim := nodes[rng.Intn(len(nodes))]
	slot, _ := g.Dense().IndexOf(victim)
	if err := g.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	agree("after leave", append(g.Nodes(), victim))
	join(2000, g.N()/3)
	if s, _ := g.Dense().IndexOf(2000); s != slot {
		t.Fatalf("join took slot %d, want the vacated %d", s, slot)
	}
	agree("after join", append(g.Nodes(), victim))

	// SetLabeling with a labeling of the new slot space realigns.
	r.SetLabeling(LiveLabeling(g, ParentsFromMap(g, tree.ParentMap())))
	if !r.alignedNow() {
		t.Error("fresh labeling of the churned slot space not aligned")
	}
}

// TestHotspotPairsNeedANonHub: a pool holding no node other than the
// hub admits no hotspot pair, like UniformPairs below two nodes.
func TestHotspotPairsNeedANonHub(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, nodes := range [][]graph.NodeID{{7}, {7, 7}, nil} {
		if got := HotspotPairs(nodes, 7, 10, 0.8, rng); len(got) != 0 {
			t.Errorf("HotspotPairs(%v, hub 7) = %v, want none", nodes, got)
		}
	}
	if got := HotspotPairs([]graph.NodeID{7, 8}, 7, 10, 0.8, rng); len(got) != 10 {
		t.Errorf("HotspotPairs([7 8], hub 7) drew %d pairs, want 10", len(got))
	}
}
