package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/trees"
)

// compareToRebuild asserts the incrementally maintained labeling is
// identical — label by label, coordinate by coordinate — to a fresh
// LiveLabeling built from the same raw pointers on the same graph.
func compareToRebuild(t *testing.T, step int, g *graph.Graph, lb *LiveLabeler) {
	t.Helper()
	got := lb.Labeling() // syncs, which may reset and grow lb.parents
	compareLabelings(t, step, g, got, lb.parents)
}

// compareLabelings diffs got against the from-scratch labeling of the
// raw per-slot parent pointers on g's current slot space.
func compareLabelings(t *testing.T, step int, g *graph.Graph, got *Labeling, parents []graph.NodeID) {
	t.Helper()
	full := LiveLabeling(g, parents)
	if got.Covered() != full.Covered() {
		t.Fatalf("step %d: incremental covers %d, rebuild %d", step, got.Covered(), full.Covered())
	}
	d := g.Dense()
	for i := 0; i < d.Slots(); i++ {
		gr, fr := got.recs[i], full.recs[i]
		if (gr.n >= 0) != (fr.n >= 0) {
			t.Fatalf("step %d: slot %d (id %d) labeled=%v, rebuild %v",
				step, i, d.ID(i), gr.n >= 0, fr.n >= 0)
		}
		if gr.n < 0 {
			continue
		}
		if gr.root != fr.root {
			t.Fatalf("step %d: slot %d root %d, rebuild %d", step, i, gr.root, fr.root)
		}
		if gc, fc := got.coordsAt(i), full.coordsAt(i); !slices.Equal(gc, fc) {
			t.Fatalf("step %d: slot %d coords %v, rebuild %v", step, i, gc, fc)
		}
		if gr.w != fr.w {
			t.Fatalf("step %d: slot %d inline words %x, rebuild %x", step, i, gr.w, fr.w)
		}
	}
	if live := len(got.arena) - got.dead; got.dead > live {
		t.Fatalf("step %d: %d dead arena words outnumber %d live ones", step, got.dead, live)
	}
}

// TestLiveLabelerPortShift pins the partial-relabel semantics on a
// concrete star: detaching a middle child shifts the ports (and whole
// coordinate subtrees) of its higher-identity siblings only.
func TestLiveLabelerPortShift(t *testing.T) {
	g := graph.New()
	for _, v := range []graph.NodeID{2, 3, 4, 5} {
		g.MustAddEdge(1, v, graph.Weight(10+v))
	}
	g.MustAddEdge(3, 4, 99) // so re-hanging 3 below 4 is credible
	d := g.Dense()
	parents := make([]graph.NodeID, d.Slots())
	set := func(v, p graph.NodeID) {
		i, _ := d.IndexOf(v)
		parents[i] = p
	}
	set(1, trees.None)
	set(2, 1)
	set(3, 1)
	set(4, 1)
	set(5, 1)
	lb := NewLiveLabeler(g, parents)
	coordOf := func(v graph.NodeID) Coords {
		c, ok := lb.Labeling().Coords(v)
		if !ok {
			t.Fatalf("node %d unlabeled", v)
		}
		return c
	}
	if got := coordOf(5); !slices.Equal(got, Coords{3}) {
		t.Fatalf("node 5 at %v, want port 3 under the root", got)
	}
	// Re-hang 3 below 4: ports of 4 and 5 under the root shift down.
	lb.SetParent(3, 4)
	compareToRebuild(t, 0, g, lb)
	if got := coordOf(4); !slices.Equal(got, Coords{1}) {
		t.Fatalf("node 4 at %v after sibling detach, want {1}", got)
	}
	if got := coordOf(3); !slices.Equal(got, Coords{1, 0}) {
		t.Fatalf("node 3 at %v below 4, want {1 0}", got)
	}
	if got := coordOf(2); !slices.Equal(got, Coords{0}) {
		t.Fatalf("node 2 moved to %v; lower-identity siblings must not shift", got)
	}
	if got := coordOf(5); !slices.Equal(got, Coords{2}) {
		t.Fatalf("node 5 at %v after sibling detach, want {2}", got)
	}
}

// TestLiveLabelerCycleGoesDark: a parent-pointer loop (routine mid-
// reconvergence) must leave exactly the loop unlabeled, as a rebuild
// would.
func TestLiveLabelerCycleGoesDark(t *testing.T) {
	g := graph.New()
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(2, 3, 11)
	g.MustAddEdge(3, 4, 12)
	g.MustAddEdge(2, 4, 13)
	d := g.Dense()
	parents := make([]graph.NodeID, d.Slots())
	for i := range parents {
		parents[i] = NoParent
	}
	lb := NewLiveLabeler(g, parents)
	lb.SetParent(1, trees.None)
	lb.SetParent(2, 1)
	lb.SetParent(3, 2)
	lb.SetParent(4, 3)
	compareToRebuild(t, 0, g, lb)
	if !lb.Labeling().Complete() {
		t.Fatal("chain labeling should be complete")
	}
	// Close a 3-4 / 4-2-3 loop: 3 adopts 4 while 4 still claims 3.
	lb.SetParent(3, 4)
	compareToRebuild(t, 1, g, lb)
	if _, ok := lb.Labeling().Coords(3); ok {
		t.Fatal("cycle member 3 still labeled")
	}
	if _, ok := lb.Labeling().Coords(4); ok {
		t.Fatal("cycle member 4 still labeled")
	}
	if _, ok := lb.Labeling().Coords(1); !ok {
		t.Fatal("root 1 lost its label to an unrelated cycle")
	}
	// Break the loop again.
	lb.SetParent(4, 2)
	lb.SetParent(3, 2)
	compareToRebuild(t, 2, g, lb)
	if !lb.Labeling().Complete() {
		t.Fatal("healed labeling should be complete")
	}
}

// TestLabelingOwnsItsIDSpace: a labeling held across node churn must
// keep a consistent (merely stale) identity space — the Dense mutating
// its ids array in place must not corrupt the labeling's lookups.
func TestLabelingOwnsItsIDSpace(t *testing.T) {
	g := graph.New()
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(2, 3, 11)
	d := g.Dense()
	parents := make([]graph.NodeID, d.Slots())
	set := func(v, p graph.NodeID) { i, _ := d.IndexOf(v); parents[i] = p }
	set(1, trees.None)
	set(2, 1)
	set(3, 2)
	lab := LiveLabeling(g, parents)
	if _, ok := lab.Coords(2); !ok {
		t.Fatal("node 2 should be labeled")
	}
	// Churn underneath the held labeling: slot 0 (node 1) is vacated
	// and recycled by node 9, breaking ascending order in the Dense.
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	g.AddNode(9)
	g.MustAddEdge(9, 3, 12)
	// The stale labeling still resolves every node it labeled.
	for _, v := range []graph.NodeID{1, 2, 3} {
		if _, ok := lab.Coords(v); !ok {
			t.Errorf("held labeling lost node %d after churn", v)
		}
	}
	if _, ok := lab.Coords(9); ok {
		t.Error("held labeling invented a coordinate for the new node")
	}
	// A router refreshed against the churned graph must not take the
	// slot-aligned path with the stale labeling.
	r := NewRouter(g, lab, Options{})
	if r.aligned {
		t.Error("router aligned itself with a labeling from an older slot assignment")
	}
}

// walkTarget is what the equivalence walk drives: the bare labeler
// (pointer writes applied by hand, mutations applied to its graph) or a
// Live rig (register writes and mutations applied to its network, the
// writes reaching the labeler through the state listener). Either way
// the labeler learns of a mutation only from the graph itself.
type walkTarget struct {
	g          *graph.Graph
	setPointer func(v, raw graph.NodeID)
	removeEdge func(u, v graph.NodeID)
	addEdge    func(u, v graph.NodeID, w graph.Weight)
	removeNode func(v graph.NodeID)
	addNode    func(id graph.NodeID)
	check      func(step int)
}

// equivalenceWalk is the torture schedule: raw pointer writes (valid,
// garbage, loops), link flaps, joins and leaves, with tgt.check after
// every single operation.
func equivalenceWalk(rng *rand.Rand, steps int, tgt walkTarget) {
	g := tgt.g
	nextID := max(100, g.Nodes()[g.N()-1]+1) // joins take fresh identities
	nextW := graph.Weight(1 << 20)
	var downed []graph.Edge

	randomPointer := func(v graph.NodeID) graph.NodeID {
		switch rng.Intn(6) {
		case 0:
			return trees.None
		case 1:
			return NoParent
		case 2:
			return graph.NodeID(rng.Intn(200) + 1) // likely garbage
		default:
			nbrs := g.NeighborsShared(v)
			if len(nbrs) == 0 {
				return trees.None
			}
			return nbrs[rng.Intn(len(nbrs))]
		}
	}

	for step := 0; step < steps; step++ {
		nodes := g.Nodes()
		switch op := rng.Intn(12); {
		case op < 6: // raw pointer write
			v := nodes[rng.Intn(len(nodes))]
			tgt.setPointer(v, randomPointer(v))
		case op < 8: // link down
			edges := g.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			tgt.removeEdge(e.U, e.V)
			downed = append(downed, e)
		case op < 10: // link up (heal a downed link or a fresh one)
			if len(downed) > 0 && rng.Intn(2) == 0 {
				e := downed[len(downed)-1]
				downed = downed[:len(downed)-1]
				if g.HasNode(e.U) && g.HasNode(e.V) && !g.HasEdge(e.U, e.V) {
					tgt.addEdge(e.U, e.V, e.W)
				}
				continue
			}
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			if u == v || g.HasEdge(u, v) {
				continue
			}
			tgt.addEdge(u, v, nextW)
			nextW++
		case op < 11: // leave
			if len(nodes) <= 3 {
				continue
			}
			tgt.removeNode(nodes[rng.Intn(len(nodes))])
		default: // join, wired to a random anchor
			tgt.addNode(nextID)
			tgt.addEdge(nextID, nodes[rng.Intn(len(nodes))], nextW)
			nextID++
			nextW++
		}
		tgt.check(step)
	}
}

// TestLabelerFollowsGraphMutations holds a bare labeler while its graph
// changes with no notification at all — a link down under a credible
// pointer, a leave whose slot a new identity recycles before the
// labeler is called again, a join that grows the slot space — and
// diffs it after every step against the from-scratch labeling of the
// pointers the test itself tracks per slot.
func TestLabelerFollowsGraphMutations(t *testing.T) {
	g := graph.New()
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(2, 3, 11)
	g.MustAddEdge(3, 4, 12)
	g.MustAddEdge(1, 3, 13)
	d := g.Dense()
	parents := make([]graph.NodeID, d.Slots())
	set := func(v, p graph.NodeID) {
		i, _ := d.IndexOf(v)
		parents[i] = p
	}
	set(1, trees.None)
	set(2, 1)
	set(3, 2)
	set(4, 3)
	lb := NewLiveLabeler(g, parents)
	step := 0
	check := func(labeled ...graph.NodeID) {
		t.Helper()
		compareLabelings(t, step, g, lb.Labeling(), parents)
		for _, v := range labeled {
			if _, ok := lb.Labeling().Coords(v); !ok {
				t.Fatalf("step %d: node %d unlabeled", step, v)
			}
		}
		step++
	}
	check(1, 2, 3, 4)

	// 3's pointer names 2: the link going down darkens 3 and 4 until 3
	// re-hangs over the chord.
	if err := g.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	check(1, 2)
	if _, ok := lb.Labeling().Coords(4); ok {
		t.Fatal("node 4 still labeled below a downed link")
	}
	lb.SetParent(3, 1)
	set(3, 1)
	check(1, 2, 3, 4)

	// 4 leaves and 9 takes its slot, with no labeler call in between:
	// 9 must not inherit 4's pointer.
	slot, _ := d.IndexOf(4)
	if err := g.RemoveNode(4); err != nil {
		t.Fatal(err)
	}
	g.AddNode(9)
	g.MustAddEdge(9, 3, 14)
	if s, _ := d.IndexOf(9); s != slot {
		t.Fatalf("9 took slot %d, want 4's slot %d", s, slot)
	}
	parents[slot] = NoParent
	check(1, 2, 3)
	lb.SetParent(9, 3)
	set(9, 3)
	check(1, 2, 3, 9)

	// 10 joins on a fresh slot, past the labeler's arrays.
	g.AddNode(10)
	g.MustAddEdge(10, 9, 15)
	parents = append(parents, NoParent)
	if len(parents) != d.Slots() {
		t.Fatalf("%d slots, want %d", d.Slots(), len(parents))
	}
	check(1, 2, 3, 9)
	lb.SetParent(10, 9)
	set(10, 9)
	check(1, 2, 3, 9, 10)
	if !lb.Labeling().Complete() {
		t.Fatal("labeling incomplete after the last join re-hung")
	}
}

// TestLiveLabelerMatchesRebuild is the equivalence torture test: the
// walk applied to the bare labeler, with the incremental labeling
// diffed against a from-scratch rebuild after every single operation.
func TestLiveLabelerMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := graph.RandomConnected(24, 0.15, rng)
			parents := make([]graph.NodeID, g.Dense().Slots())
			for i := range parents {
				parents[i] = NoParent
			}
			lb := NewLiveLabeler(g, parents)
			must := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			equivalenceWalk(rng, 1500, walkTarget{
				g:          g,
				setPointer: lb.SetParent,
				removeEdge: func(u, v graph.NodeID) { must(g.RemoveEdge(u, v)) },
				addEdge:    func(u, v graph.NodeID, w graph.Weight) { g.MustAddEdge(u, v, w) },
				removeNode: func(v graph.NodeID) { must(g.RemoveNode(v)) },
				addNode:    func(id graph.NodeID) { g.AddNode(id) },
				check:      func(step int) { compareToRebuild(t, step, g, lb) },
			})
		})
	}
}

// TestLiveMatchesRebuild takes the same walk through the rig: pointer
// writes are register writes (nil, garbage and loops included) and
// mutations go through the network, so the labeling is fed by the rig's
// listeners alone. After every operation the rig's labeling must equal
// the from-scratch labeling of the parents read back out of the
// registers. The rig attaches only after the first stretch of the walk
// has churned and corrupted the network — what NewLive reads at attach
// is held to the same oracle as what the listeners maintain.
//
// The serving input is the walk at n=300 over a silent substrate whose
// pointer writes are the algorithm's own: each pointer step is a
// synchronous repair window instead of a raw write. Its leaves, flaps
// and joins on recycled slots must end silent, every node labeled, and
// every packet between two nodes of one tree delivered.
func TestLiveMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name          string
		seed          int64
		n             int
		p             float64
		steps, attach int
		repair        bool
	}{
		{"seed=1", 1, 24, 0.15, 1000, 300, false},
		{"seed=2", 2, 24, 0.15, 1000, 300, false},
		{"seed=3", 3, 24, 0.15, 1000, 300, false},
		{"serving/n=300", 4, 300, 8.0 / 300, 1200, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			g := graph.RandomConnected(tc.n, tc.p, rng)
			net, err := runtime.NewNetwork(g, spanning.Algorithm{})
			if tc.repair {
				net, _, err = BringUp(g, AlgoSpanning, runtime.Synchronous(), 10_000_000, nil, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			must := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			var live *Live
			recycled := 0
			equivalenceWalk(rng, tc.steps, walkTarget{
				g: g,
				setPointer: func(v, raw graph.NodeID) {
					switch {
					case tc.repair:
						_, err := net.Run(runtime.Synchronous(), net.Moves()+20)
						must(err)
					case raw == NoParent:
						net.SetState(v, nil)
					default:
						net.SetState(v, spanning.State{Root: 1, Parent: raw, Dist: rng.Intn(4)})
					}
				},
				removeEdge: func(u, v graph.NodeID) { must(net.RemoveEdge(u, v)) },
				addEdge:    func(u, v graph.NodeID, w graph.Weight) { must(net.AddEdge(u, v, w)) },
				removeNode: func(v graph.NodeID) { must(net.RemoveNode(v)) },
				addNode: func(id graph.NodeID) {
					slots := net.Dense().Slots()
					must(net.AddNode(id))
					if net.Dense().Slots() == slots {
						recycled++
					}
				},
				check: func(step int) {
					if step < tc.attach {
						return
					}
					if live == nil {
						live = NewLive(net)
					}
					parents := make([]graph.NodeID, net.Dense().Slots())
					for i := range parents {
						parents[i] = ParentOf(net.StateAt(i))
					}
					live.Sync()
					compareLabelings(t, step, g, live.Labeling(), parents)
				},
			})
			if !tc.repair {
				return
			}
			if recycled == 0 {
				t.Fatal("no join landed on a recycled slot")
			}
			res, err := net.Run(runtime.Synchronous(), net.Moves()+10_000_000)
			must(err)
			if !res.Silent {
				t.Fatal("no silence after the walk")
			}
			must(runtime.CheckSilentStable(net))
			live.Sync()
			lab := live.Labeling()
			if lab.Covered() != g.N() {
				t.Fatalf("%d of %d nodes labeled at silence", lab.Covered(), g.N())
			}
			nodes, delivered := g.Nodes(), 0
			for i := 0; i < 2000; i++ {
				u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				ru, _ := lab.RootOf(u)
				rv, _ := lab.RootOf(v)
				if ru != rv {
					continue
				}
				if d := live.Router().Route(u, v); !d.Delivered {
					t.Fatalf("%d -> %d in one tree dropped: %v", u, v, d.Reason)
				}
				delivered++
			}
			if delivered == 0 {
				t.Fatal("no packet had both ends in one tree")
			}
			t.Logf("n=%d m=%d after the walk: %d joins on recycled slots, %d packets delivered in one tree",
				g.N(), g.M(), recycled, delivered)
		})
	}
}
