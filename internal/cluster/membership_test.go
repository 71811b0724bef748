package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/routing"
	"silentspan/internal/spanning"
	"silentspan/internal/trees"
	"silentspan/internal/wire"
)

// TestJoinLeaveCrashLockstep: the tentpole smoke — nodes join, leave,
// and crash in a running lockstep cluster; after each mutation the
// cluster re-stabilizes to the silent tree of the current graph, and
// cluster totals (frames, membership counters) stay monotone across
// retirements.
func TestJoinLeaveCrashLockstep(t *testing.T) {
	g := graph.Path(5) // 1-2-3-4-5
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(3)))
	converge(t, cl, 4000)
	checkSilentTree(t, cl)

	// Join node 9 hanging off 3 and 5, mid-run.
	if err := cl.Join(9, []graph.Edge{{U: 9, V: 3, W: 100}, {U: 9, V: 5, W: 101}}); err != nil {
		t.Fatal(err)
	}
	if cl.Nodes() != 6 {
		t.Fatalf("nodes = %d after join, want 6", cl.Nodes())
	}
	converge(t, cl, 4000)
	checkSilentTree(t, cl)
	if st := cl.Stats(); st.Joins != 1 || st.AdvertsSent == 0 {
		t.Fatalf("join accounting: %+v", st)
	}

	framesBefore := cl.Stats().FramesSent

	// Leave node 5 cooperatively. In lockstep the coordinator's remap
	// lands before the goodbye is ingested, so eviction is observable as
	// the leaver vanishing from every survivor's neighbor row, and the
	// goodbye itself arriving — and being gated as no-longer-a-neighbor —
	// on the wire. (On free-running transports the goodbye can land
	// first and trigger the cache wipe directly.)
	rejBefore := cl.Stats().RxRejected
	if err := cl.Leave(5); err != nil {
		t.Fatal(err)
	}
	cl.Tick() // deliver the goodbye
	for _, v := range cl.Graph().Nodes() {
		_, _, _, neighbors, _ := cl.Node(v).adminSnapshot()
		if slices.Contains(neighbors, 5) {
			t.Fatalf("node %d still lists the leaver as a neighbor", v)
		}
	}
	if rej := cl.Stats().RxRejected; rej <= rejBefore {
		t.Fatalf("goodbye never arrived on the wire (rejected %d -> %d)", rejBefore, rej)
	}
	converge(t, cl, 4000)
	checkSilentTree(t, cl)

	// Crash node 4: no goodbye, discovery via staleness.
	if err := cl.Crash(4); err != nil {
		t.Fatal(err)
	}
	converge(t, cl, 4000)
	checkSilentTree(t, cl)

	st := cl.Stats()
	if st.Joins != 1 || st.Leaves != 1 || st.Crashes != 1 {
		t.Fatalf("membership accounting: %+v", st)
	}
	if st.FramesSent < framesBefore {
		t.Fatalf("cluster totals went backwards across churn: %d -> %d", framesBefore, st.FramesSent)
	}
	if cl.Nodes() != 4 {
		t.Fatalf("nodes = %d, want 4", cl.Nodes())
	}
	// Retiring the whole cluster is refused at the last node.
	for _, v := range []graph.NodeID{1, 2, 3} {
		if err := cl.Leave(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Leave(9); err == nil {
		t.Fatal("retiring the last node succeeded")
	}
}

// TestRejoinAfterCrash: the recycled-id regression — a node crashes and
// the same identity rejoins while its neighbors still hold the old
// incarnation's cache, seq filter, and delta anchors. The rejoiner's
// frames (opening above the remembered seq floor) must be accepted
// immediately, and the neighbor's receive state for the id must be the
// new incarnation's, not a carried-over ghost.
func TestRejoinAfterCrash(t *testing.T) {
	g := graph.Ring(6)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(7)))
	converge(t, cl, 4000)

	victim := graph.NodeID(4)
	var edges []graph.Edge
	for _, u := range g.Neighbors(victim) {
		w, _ := g.EdgeWeight(victim, u)
		edges = append(edges, graph.Edge{U: victim, V: u, W: w})
	}
	oldSeq := cl.Node(victim).seq
	if err := cl.Crash(victim); err != nil {
		t.Fatal(err)
	}
	// Rejoin after only two ticks: far inside the staleness TTL, so
	// without the advert/seq-floor machinery the neighbors' filters
	// would still be primed with the old incarnation.
	cl.Tick()
	cl.Tick()
	if err := cl.Join(victim, edges); err != nil {
		t.Fatal(err)
	}
	if got := cl.Node(victim).seq; got < oldSeq {
		t.Fatalf("rejoined incarnation opened at seq %d, below the departed incarnation's %d", got, oldSeq)
	}
	converge(t, cl, 4000)
	checkSilentTree(t, cl)

	// A neighbor must hold a fresh, non-stale entry for the rejoiner
	// with a seq above everything the old incarnation sent.
	nb := cl.Node(g.Neighbors(victim)[0])
	_, _, tick, neighbors, peers := nb.adminSnapshot()
	j := slices.Index(neighbors, victim)
	if j < 0 {
		t.Fatalf("rejoiner missing from neighbor row %v", neighbors)
	}
	p := peers[j]
	if p.lastSeen == 0 || tick-p.lastSeen > uint64(cl.cfg.StalenessTTL) {
		t.Fatalf("rejoiner's cache entry stale after convergence: seen=%d tick=%d", p.lastSeen, tick)
	}
	if p.lastSeq <= oldSeq {
		t.Fatalf("neighbor accepted seq %d not above the old incarnation's %d", p.lastSeq, oldSeq)
	}
}

// TestRouteRightAfterCrash: packets launched in the tick after a crash
// route through a labeling whose slot space just went unsorted, with
// every origin's actor looking up coordinates concurrently under the
// gateway's read lock. Regression for a lazily built identity index on
// that read path (concurrent map write; the -race matrix runs this
// package).
func TestRouteRightAfterCrash(t *testing.T) {
	g := graph.Complete(8)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	gw := NewGateway(cl)
	cl.InitArbitrary(rand.New(rand.NewSource(11)))
	converge(t, cl, 4000)

	if err := cl.Crash(5); err != nil {
		t.Fatal(err)
	}
	gw.Launch(routing.UniformPairs(g.Nodes(), 64, rand.New(rand.NewSource(12))))
	for i := 0; i < 4*g.N() && gw.Outstanding() > 0; i++ {
		cl.Tick()
	}
	if n := gw.Outstanding(); n > 0 {
		t.Fatalf("%d packets unresolved among the survivors", n)
	}
}

// TestSimultaneousJoinLeave: a leave and a join (including a rejoin of
// the just-departed id) land between the same two ticks; the cluster
// restabilizes to the spec tree of the final graph.
func TestSimultaneousJoinLeave(t *testing.T) {
	g := graph.Complete(5)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(11)))
	converge(t, cl, 4000)

	// Same barrier window: 5 leaves, 8 joins, and 5 rejoins at once.
	if err := cl.Leave(5); err != nil {
		t.Fatal(err)
	}
	if err := cl.Join(8, []graph.Edge{{U: 8, V: 1, W: 50}, {U: 8, V: 2, W: 51}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Join(5, []graph.Edge{{U: 5, V: 8, W: 52}, {U: 5, V: 3, W: 53}}); err != nil {
		t.Fatal(err)
	}
	converge(t, cl, 4000)
	checkSilentTree(t, cl)
	if n := cl.Nodes(); n != 6 {
		t.Fatalf("nodes = %d, want 6", n)
	}
}

// TestLeaveDuringResync: a node departs while the delta protocol is
// mid-flight under a chaotic transport — resync requests and anchors
// addressed to and from it are still in the air. The survivors must
// neither panic nor wedge, and the cluster restabilizes.
func TestLeaveDuringResync(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.RandomConnected(10, 0.4, rng)
	ft := NewFaultTransport(NewChanTransport(),
		FaultConfig{Seed: 5, Loss: 0.25, Delay: 0.3, MaxDelayTicks: 4})
	cl, err := New(g, spanning.Algorithm{}, ft, Config{StalenessTTL: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(22)))

	// Run mid-convergence until the delta machinery is demonstrably hot.
	for i := 0; i < 2000 && cl.Stats().ResyncsSent == 0; i++ {
		cl.Tick()
	}
	if cl.Stats().ResyncsSent == 0 {
		t.Fatal("fault profile produced no resync traffic; test void")
	}
	// Retire a non-cut node while that traffic is in flight.
	nodes := g.Nodes()
	var victim graph.NodeID
	for _, v := range nodes[1:] {
		clone := g.Clone()
		clone.RemoveNode(v)
		if clone.Connected() {
			victim = v
			break
		}
	}
	if victim == 0 {
		t.Skip("no removable node keeps the graph connected")
	}
	if err := cl.Leave(victim); err != nil {
		t.Fatal(err)
	}
	converge(t, cl, 20000)
	checkSilentTree(t, cl)
}

// TestAdvertNeverCreatesPhantom: adverts are eviction hints, not
// membership — a decodable advert from an id the receiver's topology
// does not list as a neighbor is rejected outright and perturbs
// nothing.
func TestAdvertNeverCreatesPhantom(t *testing.T) {
	g := graph.Path(3)
	tr := NewChanTransport()
	cl, err := New(g, spanning.Algorithm{}, tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(2)))
	converge(t, cl, 2000)

	// A perfectly well-formed advert from a stranger, delivered through
	// the transport like any other frame.
	ep, err := tr.Open(99)
	if err != nil {
		t.Fatal(err)
	}
	var b bits.Builder
	forged, err := wire.Encode(wire.Frame{Kind: wire.KindAdvert, Alg: cl.Codec().Code(),
		Src: 99, Seq: 7, Neighbors: []graph.NodeID{1, 2, 3}}, cl.Codec(), &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	rejBefore := cl.Stats().RxRejected
	evBefore := cl.Stats().NeighborEvictions
	if err := ep.Send(2, forged); err != nil {
		t.Fatal(err)
	}
	cl.Tick()
	cl.Tick()
	if cl.Node(99) != nil || cl.Nodes() != 3 {
		t.Fatal("a wire frame created a phantom member")
	}
	if cl.Stats().RxRejected <= rejBefore {
		t.Fatal("forged advert was not rejected")
	}
	if cl.Stats().NeighborEvictions != evBefore {
		t.Fatal("forged advert reset a neighbor's receive state")
	}
	checkSilentTree(t, cl)
}

// TestJoinRejectsForeignEdges: Join's edges must each join the new id
// to a distinct member. A join that breaks the contract — or names an id
// already present — returns an error and changes nothing: the graph
// keeps its nodes and edges, and the transport never opens the id (the
// final, valid join of the same id opens it).
func TestJoinRejectsForeignEdges(t *testing.T) {
	cl, err := New(graph.Path(6), spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	g := cl.Graph()
	for _, tc := range []struct {
		name  string
		id    graph.NodeID
		edges []graph.Edge
	}{
		{"foreign edge", 99, []graph.Edge{{U: 99, V: 1, W: 50}, {U: 2, V: 5, W: 51}}},
		{"edge to a non-member", 99, []graph.Edge{{U: 99, V: 1, W: 50}, {U: 99, V: 7, W: 51}}},
		{"self-loop", 99, []graph.Edge{{U: 99, V: 99, W: 50}}},
		{"duplicate edge", 99, []graph.Edge{{U: 99, V: 1, W: 50}, {U: 1, V: 99, W: 51}}},
		{"id already present", 3, []graph.Edge{{U: 3, V: 1, W: 50}}},
	} {
		if err := cl.Join(tc.id, tc.edges); err == nil {
			t.Errorf("%s: Join(%d, %v) accepted", tc.name, tc.id, tc.edges)
		}
		if g.N() != 6 || g.M() != 5 || cl.Nodes() != 6 {
			t.Fatalf("%s: rejected join left N=%d M=%d members=%d, want 6, 5, 6", tc.name, g.N(), g.M(), cl.Nodes())
		}
	}
	if err := cl.Join(99, []graph.Edge{{U: 99, V: 1, W: 50}, {U: 6, V: 99, W: 51}}); err != nil {
		t.Fatalf("valid join after the rejected ones: %v", err)
	}
	if g.N() != 7 || g.M() != 7 || !g.HasEdge(6, 99) {
		t.Fatalf("valid join: N=%d M=%d, want 7, 7", g.N(), g.M())
	}
}

// TestGatewayResolutionExclusive: the data-plane ledger's resolution is
// single-shot across all four outcomes — whatever races (duplicate
// copies delivering, dropping, expiring, or dying with a retiring node)
// a packet resolves into exactly one counter and the ledger always
// balances.
func TestGatewayResolutionExclusive(t *testing.T) {
	g := graph.Path(3)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	gw := NewGateway(cl)

	launch := func() wire.Packet {
		gw.mu.Lock()
		defer gw.mu.Unlock()
		gw.nextID++
		pkt := wire.Packet{ID: gw.nextID, Origin: 1, Dst: 3}
		gw.pending[pkt.ID] = pkt
		gw.stats.Launched++
		return pkt
	}
	cases := []struct {
		name   string
		events []string // applied in order; exactly the first must resolve
	}{
		{"deliver-then-dup-deliver", []string{"deliver", "deliver"}},
		{"deliver-then-drop", []string{"deliver", "drop"}},
		{"drop-then-deliver", []string{"drop", "deliver"}},
		{"drop-then-orphan", []string{"drop", "orphan"}},
		{"orphan-then-deliver", []string{"orphan", "deliver"}},
		{"orphan-then-drop", []string{"orphan", "drop"}},
		{"expire-then-deliver", []string{"expire", "deliver"}},
		{"deliver-then-expire", []string{"deliver", "expire"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkt := launch()
			before := gw.Stats()
			for i, ev := range tc.events {
				var resolved bool
				switch ev {
				case "deliver":
					resolved = gw.deliver(pkt)
				case "drop":
					resolved = gw.drop(pkt)
				case "orphan":
					resolved = gw.orphan(pkt)
				case "expire":
					resolved = gw.Expire() == 1
				}
				if want := i == 0; resolved != want {
					t.Fatalf("event %d (%s): resolved=%v, want %v", i, ev, resolved, want)
				}
			}
			after := gw.Stats()
			gained := (after.Delivered - before.Delivered) +
				(after.Dropped - before.Dropped) + (after.Lost - before.Lost)
			if gained != 1 {
				t.Fatalf("packet resolved into %d counters: before %+v after %+v", gained, before, after)
			}
			if after.Delivered+after.Dropped+after.Lost != after.Launched {
				t.Fatalf("ledger out of balance: %+v", after)
			}
			if gw.Outstanding() != 0 {
				t.Fatalf("resolved packet still outstanding")
			}
		})
	}
}

// TestUDPEvictRejoin: the stale-directory regression — without Evict a
// rejoining id fails Open ("already attached"), and worse, survivors'
// sends would resolve the id to the dead incarnation's socket. After
// Evict the id unbinds, reopens on a fresh socket, and traffic reaches
// the new incarnation.
func TestUDPEvictRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	tr := NewUDPTransport()
	defer tr.Close()
	ep1, err := tr.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := tr.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	oldAddr := tr.addrs[2].String()

	if _, err := tr.Open(2); err == nil {
		t.Fatal("duplicate Open accepted")
	}
	ep2.Close()
	tr.Evict(2)
	if _, ok := tr.addrs[2]; ok {
		t.Fatal("eviction left the id in the directory")
	}
	if err := ep1.Send(2, []byte("x")); err == nil {
		t.Fatal("send to an evicted id resolved a stale address")
	}

	ep2b, err := tr.Open(2)
	if err != nil {
		t.Fatalf("rejoin after eviction: %v", err)
	}
	if tr.addrs[2].String() == oldAddr {
		t.Log("rebind reused the old port (legal); directory still points at the live socket")
	}
	if err := ep1.Send(2, []byte("hello-rejoin")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		if got := ep2b.Drain(nil); len(got) > 0 {
			if string(got[0]) != "hello-rejoin" {
				t.Fatalf("rejoiner drained %q", got[0])
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("frame never reached the rejoined incarnation")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestFaultBroadcastDeterminism: per-copy fates on the Broadcast path
// are a deterministic function of the seed — two identically seeded
// transports driving identical broadcast schedules produce identical
// fault accounting and identical per-receiver delivery streams.
func TestFaultBroadcastDeterminism(t *testing.T) {
	run := func() (FaultStats, map[graph.NodeID][]string) {
		inner := NewChanTransport()
		ft := NewFaultTransport(inner, FaultConfig{
			Seed: 99, Loss: 0.2, Dup: 0.2, Corrupt: 0.1, Delay: 0.3, MaxDelayTicks: 3})
		ids := []graph.NodeID{1, 2, 3, 4}
		eps := make(map[graph.NodeID]Endpoint)
		for _, id := range ids {
			ep, err := ft.Open(id)
			if err != nil {
				t.Fatal(err)
			}
			eps[id] = ep
		}
		recv := make(map[graph.NodeID][]string)
		for tick := uint64(1); tick <= 30; tick++ {
			for _, id := range ids {
				var dsts []graph.NodeID
				for _, o := range ids {
					if o != id {
						dsts = append(dsts, o)
					}
				}
				eps[id].Broadcast(dsts, fmt.Appendf(nil, "t%d-from%d", tick, id))
			}
			ft.Step(tick)
			for _, id := range ids {
				for _, fr := range eps[id].Drain(nil) {
					recv[id] = append(recv[id], string(fr))
				}
			}
		}
		return ft.Stats(), recv
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 {
		t.Fatalf("fault accounting diverged: %+v vs %+v", s1, s2)
	}
	if s1.Lost == 0 || s1.Duplicated == 0 || s1.Delayed == 0 || s1.Corrupted == 0 {
		t.Fatalf("profile left fault classes unused: %+v", s1)
	}
	for id, frames := range r1 {
		if !slices.Equal(frames, r2[id]) {
			t.Fatalf("node %d delivery stream diverged:\n%v\nvs\n%v", id, frames, r2[id])
		}
	}
}

// TestServeCrashRejoin is the acceptance scenario: a free-running UDP
// cluster loses members mid-Serve — including the root — and the same
// ids rejoin, all without the cluster ever restarting. The cluster must
// re-stabilize each time, and at the end a crawl of the admin plane
// must reconstruct a tree identical to the coordinator's mirror.
func TestServeCrashRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	rng := rand.New(rand.NewSource(31))
	g := graph.RandomConnected(12, 0.35, rng)
	tr := NewUDPTransport()
	defer tr.Close()
	cl, err := New(g, spanning.Algorithm{}, tr, Config{Interval: time.Millisecond, StalenessTTL: 64})
	if err != nil {
		t.Fatal(err)
	}
	cl.InitArbitrary(rng)

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- cl.Serve(ctx) }()
	defer func() { cancel(); <-served }()

	waitSilent := func(what string) {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for {
			net, err := cl.Mirror()
			if err == nil && net.Silent() {
				if _, err := spanning.ExtractTree(net); err == nil {
					return
				}
			}
			select {
			case <-deadline:
				t.Fatalf("%s: no silent projection within deadline", what)
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	waitSilent("initial convergence")

	// Crash the root and one more node (kept non-cut against the
	// evolving graph), mid-Serve.
	victims := []graph.NodeID{cl.Graph().MinID()}
	for _, v := range cl.Graph().Nodes() {
		if v == victims[0] {
			continue
		}
		clone := cl.Graph().Clone()
		clone.RemoveNode(victims[0])
		clone.RemoveNode(v)
		if clone.Connected() {
			victims = append(victims, v)
			break
		}
	}
	type rejoinSpec struct {
		id    graph.NodeID
		edges []graph.Edge
	}
	var rejoin []rejoinSpec
	for _, v := range victims {
		var es []graph.Edge
		for _, u := range cl.Graph().Neighbors(v) {
			w, _ := cl.Graph().EdgeWeight(v, u)
			es = append(es, graph.Edge{U: v, V: u, W: w})
		}
		rejoin = append(rejoin, rejoinSpec{id: v, edges: es})
	}
	for _, v := range victims {
		if err := cl.Crash(v); err != nil {
			t.Fatal(err)
		}
	}
	waitSilent("after crashing the root and a member")
	if root := treeRootOf(t, cl); root != cl.Graph().MinID() {
		t.Fatalf("surviving tree rooted at %d, want new minimum %d", root, cl.Graph().MinID())
	}

	// Rejoin the same identities over the same links. Edges to a fellow
	// victim are deferred until both are back.
	present := func(id graph.NodeID) bool { return cl.Node(id) != nil }
	var deferred []graph.Edge
	for _, r := range rejoin {
		var now []graph.Edge
		for _, e := range r.edges {
			if present(e.V) {
				now = append(now, e)
			} else {
				deferred = append(deferred, e)
			}
		}
		if err := cl.Join(r.id, now); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range deferred {
		if _, ok := cl.Graph().EdgeWeight(e.U, e.V); ok {
			continue // the later join's own edge list already restored it
		}
		if err := cl.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	waitSilent("after rejoining")
	if root := treeRootOf(t, cl); root != g.MinID() {
		t.Fatalf("tree rooted at %d after rejoin, want original minimum %d", root, g.MinID())
	}

	// The operations plane agrees edge-for-edge with the mirror.
	net, err := cl.Mirror()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ops.Crawl(cl.AdminHub(), g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Visited() != cl.Nodes() || len(rep.Errors) != 0 {
		t.Fatalf("crawl covered %d of %d nodes (errors %v)", rep.Visited(), cl.Nodes(), rep.Errors)
	}
	want := make(map[graph.NodeID]graph.NodeID)
	for _, v := range cl.Graph().Nodes() {
		p := routing.ParentOf(net.State(v))
		if p == routing.NoParent || p == trees.None {
			p = ops.None
		}
		want[v] = p
	}
	if diffs := rep.DiffParents(want); len(diffs) != 0 {
		t.Fatalf("crawl diverges from mirror: %v", diffs)
	}
}

// TestRemapPeerState: a remap carries the whole record of every
// neighbor that persists and starts every other one from zero — new
// ids, and ids that left the row and came back (a recycled id
// rejoining) — and each remap is a membership event: one epoch bump,
// mirrored, with an urgent report pending.
func TestRemapPeerState(t *testing.T) {
	rec := func(id uint64) peerState {
		return peerState{cache: spanning.State{Root: 1, Parent: 1, Dist: int(id)}, lastSeen: id, lastSeq: 10 * id,
			wasStale: true, anchor: spanning.State{Root: 1}, anchorSeq: id, lastResync: id,
			admin: fmt.Sprint("addr", id), q: wire.QuietReport{Epoch: id, Sub: true, Count: id}}
	}
	nd := newNode(1, 0, 4, []graph.NodeID{2, 3, 5}, []graph.Weight{1, 1, 1}, nil, nil, nil)
	nd.nbr = []peerState{rec(2), rec(3), rec(5)}
	for _, tc := range []struct {
		name      string
		n         int
		neighbors []graph.NodeID
		want      []peerState
	}{
		{"persisting 2 and 3, new 4, departed 5",
			4, []graph.NodeID{2, 3, 4}, []peerState{rec(2), rec(3), {}}},
		{"persisting 2, 3 and 4, 5 returned",
			5, []graph.NodeID{2, 3, 4, 5}, []peerState{rec(2), rec(3), {}, {}}},
	} {
		epoch := nd.qEpoch
		nd.qDirty = false
		nd.mu.Lock()
		nd.applyRemapLocked(tc.n, tc.neighbors, make([]graph.Weight, len(tc.neighbors)))
		nd.mu.Unlock()
		if !slices.Equal(nd.nbr, tc.want) {
			t.Errorf("%s: records\n got %+v\nwant %+v", tc.name, nd.nbr, tc.want)
		}
		if !slices.Equal(nd.neighbors, tc.neighbors) || nd.n != tc.n || len(nd.peers) != len(nd.nbr) {
			t.Errorf("%s: row n=%d neighbors=%v peers=%d", tc.name, nd.n, nd.neighbors, len(nd.peers))
		}
		if nd.qEpoch != epoch+1 || nd.epochMirror.Load() != nd.qEpoch || !nd.qDirty {
			t.Errorf("%s: epoch %d -> %d (mirror %d, dirty %v), want one mirrored bump and a pending report",
				tc.name, epoch, nd.qEpoch, nd.epochMirror.Load(), nd.qDirty)
		}
	}
}

// treeRootOf extracts the stabilized tree's root from the mirror.
func treeRootOf(t *testing.T, cl *Cluster) graph.NodeID {
	t.Helper()
	net, err := cl.Mirror()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spanning.ExtractTree(net)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Root()
}
