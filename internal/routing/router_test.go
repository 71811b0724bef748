package routing

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

func assertLoopFree(t *testing.T, d Delivery) {
	t.Helper()
	seen := make(map[graph.NodeID]bool, len(d.Path))
	for _, v := range d.Path {
		if seen[v] {
			t.Fatalf("route %d -> %d revisits node %d: %v", d.Src, d.Dst, v, d.Path)
		}
		seen[v] = true
	}
}

// The acceptance property: routes along tree paths have stretch exactly
// 1, and every delivered packet is loop-free.
func TestTreePathRoutesHaveStretchOne(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// The graph IS a tree: every shortest path is the tree path, so
	// hops must equal the exact graph distance — stretch exactly 1.
	g := graph.RandomConnected(60, 0, rng)
	tree, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	lab := Label(tree)
	r := NewRouter(g, lab, Options{RecordPaths: true})
	for _, u := range g.Nodes() {
		dist, err := g.BFSDistances(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range g.Nodes() {
			if u == v {
				continue
			}
			d := r.Route(u, v)
			if !d.Delivered {
				t.Fatalf("%d -> %d dropped: %v", u, v, d.Reason)
			}
			if d.Hops != dist[v] {
				t.Errorf("%d -> %d: %d hops, shortest %d (stretch != 1)", u, v, d.Hops, dist[v])
			}
			assertLoopFree(t, d)
		}
	}
}

func TestTreeOnlyRoutingFollowsTreeDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomConnected(50, 0.15, rng)
	tree, err := trees.RandomSpanningTree(g, g.MinID(), rng)
	if err != nil {
		t.Fatal(err)
	}
	lab := Label(tree)
	r := NewRouter(g, lab, Options{TreeOnly: true, RecordPaths: true})
	nodes := g.Nodes()
	for i := 0; i < 300; i++ {
		u := nodes[rng.Intn(len(nodes))]
		v := nodes[rng.Intn(len(nodes))]
		if u == v {
			continue
		}
		d := r.Route(u, v)
		if !d.Delivered {
			t.Fatalf("%d -> %d dropped: %v", u, v, d.Reason)
		}
		want, _ := lab.TreeDist(u, v)
		if d.Hops != want {
			t.Errorf("%d -> %d: tree-only took %d hops, tree distance %d", u, v, d.Hops, want)
		}
		assertLoopFree(t, d)
		// Every hop of a tree-only route must be a tree edge.
		for i := 0; i+1 < len(d.Path); i++ {
			if !tree.HasEdge(d.Path[i], d.Path[i+1]) {
				t.Errorf("%d -> %d: hop %d-%d is not a tree edge", u, v, d.Path[i], d.Path[i+1])
			}
		}
	}
}

func TestShortcutsNeverWorseThanTree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.RandomConnected(80, 0.1, rng)
	tree, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	lab := Label(tree)
	treeR := NewRouter(g, lab, Options{TreeOnly: true})
	cutR := NewRouter(g, lab, Options{RecordPaths: true})
	nodes := g.Nodes()
	improved := 0
	for i := 0; i < 500; i++ {
		u := nodes[rng.Intn(len(nodes))]
		v := nodes[rng.Intn(len(nodes))]
		if u == v {
			continue
		}
		dt := treeR.Route(u, v)
		dc := cutR.Route(u, v)
		if !dt.Delivered || !dc.Delivered {
			t.Fatalf("%d -> %d: tree=%v shortcut=%v", u, v, dt.Reason, dc.Reason)
		}
		if dc.Hops > dt.Hops {
			t.Errorf("%d -> %d: shortcut route %d hops > tree route %d", u, v, dc.Hops, dt.Hops)
		}
		if dc.Hops < dt.Hops {
			improved++
		}
		assertLoopFree(t, dc)
	}
	if improved == 0 {
		t.Error("greedy shortcutting never improved on the tree path on a dense-ish random graph")
	}
}

func TestFullDeliveryAcrossFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	families := map[string]*graph.Graph{
		"random":    graph.RandomConnected(120, 0.05, rng),
		"geometric": graph.RandomGeometric(100, 0.18, rng),
		"grid":      graph.Grid(10, 12),
		"lollipop":  graph.Lollipop(8, 20),
		"star":      graph.Star(40),
	}
	for name, g := range families {
		tree, err := trees.BFSTree(g, g.MinID())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lab := Label(tree)
		r := NewRouter(g, lab, Options{})
		stats, err := Drive(r, UniformPairs(g.Nodes(), 2000, rng), DriveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Delivered != stats.Sent {
			t.Errorf("%s: delivered %d of %d", name, stats.Delivered, stats.Sent)
		}
		if stats.MeanStretch < 1 && stats.StretchSamples > 0 {
			t.Errorf("%s: mean stretch %.3f < 1", name, stats.MeanStretch)
		}
	}
}

func TestRouterRefusesAcrossCoordinateSpaces(t *testing.T) {
	g := graph.Path(6)
	parent := map[graph.NodeID]graph.NodeID{
		1: trees.None, 2: 1, 3: 2,
		4: trees.None, 5: 4, 6: 5, // second root: 4-5-6 island
	}
	lab := LiveLabeling(g, ParentsFromMap(g, parent))
	r := NewRouter(g, lab, Options{})
	d := r.Route(1, 6)
	if d.Delivered {
		t.Fatal("delivered across disjoint coordinate spaces")
	}
	if d.Reason != DropNoDestCoord {
		t.Errorf("reason = %v, want %v", d.Reason, DropNoDestCoord)
	}
	// Within one space, routing still works.
	if d := r.Route(1, 3); !d.Delivered || d.Hops != 2 {
		t.Errorf("1 -> 3: delivered=%v hops=%d, want delivered in 2", d.Delivered, d.Hops)
	}
}

func TestHotspotAndAllPairsWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := graph.RandomConnected(60, 0.08, rng)
	tree, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, Label(tree), Options{})

	hot := HotspotPairs(g.Nodes(), tree.Root(), 1000, 0.8, rng)
	toHub := 0
	for _, p := range hot {
		if p.Dst == tree.Root() {
			toHub++
		} else if p.Src != tree.Root() {
			t.Fatalf("hotspot pair %v touches no hub", p)
		}
	}
	if toHub < 700 || toHub > 900 {
		t.Errorf("toHub fraction off: %d of 1000 at 0.8", toHub)
	}
	stats, err := Drive(r, hot, DriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != stats.Sent {
		t.Errorf("hotspot: delivered %d of %d", stats.Delivered, stats.Sent)
	}

	all := AllPairsSample(g.Nodes(), 1<<30, rng)
	if want := g.N() * (g.N() - 1); len(all) != want {
		t.Fatalf("all-pairs: %d pairs, want %d", len(all), want)
	}
	sample := AllPairsSample(g.Nodes(), 500, rng)
	seen := map[Pair]bool{}
	for _, p := range sample {
		if p.Src == p.Dst || seen[p] {
			t.Fatalf("bad sample pair %v", p)
		}
		seen[p] = true
	}
	stats, err = Drive(r, sample, DriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != stats.Sent {
		t.Errorf("all-pairs sample: delivered %d of %d", stats.Delivered, stats.Sent)
	}
}

// coordsOracle is the greedy router written out over the public
// surface only: coordinates decoded by Labeling.Coords, distances by
// Coords.Dist, tree edges by treeNeighbors, neighbors in ascending
// identity order, the first strictly closest one taken.
type coordsOracle struct {
	g        *graph.Graph
	lab      *Labeling
	treeOnly bool
	maxHops  int
	memo     map[graph.NodeID]oracleLabel
}

type oracleLabel struct {
	c    Coords
	root graph.NodeID
	ok   bool
}

func (o *coordsOracle) label(v graph.NodeID) oracleLabel {
	if e, ok := o.memo[v]; ok {
		return e
	}
	var e oracleLabel
	e.c, e.ok = o.lab.Coords(v)
	e.root, _ = o.lab.RootOf(v)
	o.memo[v] = e
	return e
}

func (o *coordsOracle) nextHop(cur, dst graph.NodeID) (graph.NodeID, DropReason, bool) {
	c, d := o.label(cur), o.label(dst)
	if !c.ok {
		return 0, DropNoSourceCoord, false
	}
	if !d.ok || d.root != c.root {
		return 0, DropNoDestCoord, false
	}
	best, bestDist, found := graph.NodeID(0), c.c.Dist(d.c), false
	for _, u := range o.g.NeighborsShared(cur) {
		e := o.label(u)
		if !e.ok || e.root != c.root || o.treeOnly && !treeNeighbors(c.c, e.c) {
			continue
		}
		if dist := e.c.Dist(d.c); dist < bestDist {
			best, bestDist, found = u, dist, true
		}
	}
	if !found {
		return 0, DropDeadEnd, false
	}
	return best, DropNone, true
}

func (o *coordsOracle) route(src, dst graph.NodeID) Delivery {
	d := Delivery{Src: src, Dst: dst, Path: []graph.NodeID{src}}
	for cur := src; cur != dst; d.Hops++ {
		if d.Hops >= o.maxHops {
			d.Reason = DropTTL
			return d
		}
		next, reason, ok := o.nextHop(cur, dst)
		if !ok {
			d.Reason = reason
			return d
		}
		d.Path = append(d.Path, next)
		cur = next
	}
	d.Delivered = true
	return d
}

// TestRouterMatchesCoordsOracle: NextHop and Route over the packed
// label records make exactly the decisions of the coordinate oracle,
// greedy and TreeOnly, on the slot-aligned path and on the identity
// path (a Dense churned by a leave and a join recycling its slot under
// a held labeling). The labelings are Label of a BFS tree, Label of a
// DFS tree (deeper than the eight inline ports, so distances read the
// arena), and a LiveLabeler over the DFS tree after 200 random pointer
// writes, which compacts its arena on the way.
func TestRouterMatchesCoordsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const n = 2000
	g := graph.RandomConnected(n, 8.0/n, rng)
	bfs, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := trees.DFSTree(g, g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLiveLabeler(g, ParentsFromMap(g, dfs.ParentMap()))
	nodes := g.Nodes()
	compacted := false
	for k := 0; k < 200; k++ {
		v := nodes[rng.Intn(len(nodes))]
		p := graph.NodeID(rng.Intn(2*n) + 1) // often not a neighbor
		switch nbrs := g.NeighborsShared(v); rng.Intn(8) {
		case 0:
			p = trees.None
		case 1:
			p = NoParent
		case 2:
		default:
			p = nbrs[rng.Intn(len(nbrs))]
		}
		before := len(lb.lab.arena)
		lb.SetParent(v, p)
		compacted = compacted || len(lb.lab.arena) < before
	}
	if !compacted {
		t.Fatal("200 pointer writes under a DFS tree never compacted the arena")
	}
	compareToRebuild(t, 200, g, lb)

	labs := []struct {
		name  string
		lab   *Labeling
		pairs int
	}{
		{"bfs", Label(bfs), 400},
		{"dfs", Label(dfs), 60},
		{"live", lb.Labeling(), 60},
	}
	if !slices.ContainsFunc(labs[1].lab.recs, func(r label) bool { return r.n > inlinePorts }) {
		t.Fatal("no DFS-tree coordinate is longer than the inline ports")
	}
	check := func(stage string, wantAligned bool, extra ...graph.NodeID) {
		ids := append(g.Nodes(), extra...)
		for _, tc := range labs {
			for _, treeOnly := range []bool{false, true} {
				r := NewRouter(g, tc.lab, Options{TreeOnly: treeOnly, RecordPaths: true})
				if r.alignedNow() != wantAligned {
					t.Fatalf("%s/%s: aligned=%v, want %v", stage, tc.name, r.alignedNow(), wantAligned)
				}
				o := &coordsOracle{g: g, lab: tc.lab, treeOnly: treeOnly, maxHops: r.MaxHops(), memo: map[graph.NodeID]oracleLabel{}}
				for i := 0; i < tc.pairs; i++ {
					cur, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
					next, reason, ok := r.NextHop(cur, dst)
					wn, wr, wok := o.nextHop(cur, dst)
					if next != wn || reason != wr || ok != wok {
						t.Fatalf("%s/%s treeOnly=%v: NextHop(%d, %d) = %d %v %v, oracle %d %v %v",
							stage, tc.name, treeOnly, cur, dst, next, reason, ok, wn, wr, wok)
					}
					if got, want := r.Route(cur, dst), o.route(cur, dst); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s treeOnly=%v: Route(%d, %d) = %+v, oracle %+v",
							stage, tc.name, treeOnly, cur, dst, got, want)
					}
				}
			}
		}
	}
	check("aligned", true)

	victim := nodes[rng.Intn(len(nodes))]
	slot, _ := g.Dense().IndexOf(victim)
	if err := g.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	joined := graph.NodeID(10 * n)
	g.AddNode(joined)
	for _, u := range g.Nodes()[:8] {
		g.MustAddEdge(joined, u, graph.Weight(1<<20)+graph.Weight(u))
	}
	if s, _ := g.Dense().IndexOf(joined); s != slot {
		t.Fatalf("join took slot %d, want the vacated %d", s, slot)
	}
	check("identity", false, victim)
}
