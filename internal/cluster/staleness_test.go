package cluster

import (
	"testing"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
	"silentspan/internal/wire"
)

// TestHeartbeatStaleness is the staleness contract, per algorithm: a
// node whose cache holds an *attractive* neighbor state (a smaller
// root to adopt) must treat that neighbor as inconsistent — nil in the
// view — once the entry expires, rather than acting on stale state;
// and must act on it while the entry is fresh. The boundary tick
// (age == TTL) still counts as fresh.
func TestHeartbeatStaleness(t *testing.T) {
	const ttl = 4
	cases := []struct {
		name      string
		alg       runtime.Algorithm
		self      runtime.State
		bait      runtime.State // neighbor state worth adopting
		adopted   func(s runtime.State) bool
		untouched func(s runtime.State) bool
	}{
		{
			name: "spanning",
			alg:  spanning.Algorithm{},
			self: spanning.State{Root: 7, Parent: trees.None, Dist: 0},
			bait: spanning.State{Root: 1, Parent: trees.None, Dist: 0},
			adopted: func(s runtime.State) bool {
				ss, ok := s.(spanning.State)
				return ok && ss.Root == 1 && ss.Parent == 3 && ss.Dist == 1
			},
			untouched: func(s runtime.State) bool {
				ss, ok := s.(spanning.State)
				return ok && ss.Root == 7 && ss.Parent == trees.None
			},
		},
		{
			name: "switching",
			alg:  switching.Algorithm{},
			self: switching.SelfRoot(7),
			bait: switching.SelfRoot(1),
			adopted: func(s runtime.State) bool {
				ss, ok := switching.RegOf(s)
				return ok && ss.Root == 1 && ss.Parent == 3
			},
			untouched: func(s runtime.State) bool {
				ss, ok := switching.RegOf(s)
				return ok && ss.Root == 7 && ss.Parent == trees.None
			},
		},
	}
	for _, tc := range cases {
		for _, expired := range []bool{false, true} {
			name := tc.name + "/fresh"
			if expired {
				name = tc.name + "/expired"
			}
			t.Run(name, func(t *testing.T) {
				g := graph.New()
				g.MustAddEdge(3, 7, 1)
				codec, err := wire.ForAlgorithm(tc.alg)
				if err != nil {
					t.Fatal(err)
				}
				d := g.Dense()
				slot, _ := d.IndexOf(7)
				tr := NewChanTransport()
				ep, _ := tr.Open(7)
				nd := newNode(7, slot, 2, d.NeighborIDs(slot), d.Weights(slot), ep, codec, tc.alg)
				nd.setState(tc.self)
				// The cache entry: neighbor 3 offered the bait at tick 1.
				nd.nbr[0].cache = tc.bait
				nd.nbr[0].lastSeen = 1
				cfg := Config{StalenessTTL: ttl}
				cfg.fill()

				now := uint64(1 + ttl) // boundary: still fresh
				if expired {
					now = uint64(1 + ttl + 1)
				}
				nd.step(now, &cfg)

				got := nd.State()
				if expired {
					if !tc.untouched(got) {
						t.Fatalf("node acted on a stale cache entry: %v", got)
					}
				} else if !tc.adopted(got) {
					t.Fatalf("node ignored a fresh cache entry: %v", got)
				}
			})
		}
	}
}

// TestStalenessRecovery: an expired entry revives when a fresh
// heartbeat arrives — expiry is a view-level filter, not a tombstone.
func TestStalenessRecovery(t *testing.T) {
	g := graph.New()
	g.MustAddEdge(3, 7, 1)
	alg := spanning.Algorithm{}
	codec, _ := wire.ForAlgorithm(alg)
	d := g.Dense()
	slot, _ := d.IndexOf(7)
	tr := NewChanTransport()
	ep, _ := tr.Open(7)
	nd := newNode(7, slot, 2, d.NeighborIDs(slot), d.Weights(slot), ep, codec, alg)
	nd.setState(spanning.State{Root: 7, Parent: trees.None, Dist: 0})
	cfg := Config{StalenessTTL: 2}
	cfg.fill()

	// Stale bait: ignored.
	nd.nbr[0].cache = spanning.State{Root: 1, Parent: trees.None, Dist: 0}
	nd.nbr[0].lastSeen = 1
	nd.step(10, &cfg)
	if s := nd.State().(spanning.State); s.Root != 7 {
		t.Fatalf("acted on stale entry: %v", s)
	}

	// A fresh heartbeat with a newer sequence number revives it.
	data, err := wire.Encode(wire.Frame{
		Kind: wire.KindDelta, Alg: codec.Code(), Src: 3, Seq: 5, BaseSeq: 5,
		State: spanning.State{Root: 1, Parent: trees.None, Dist: 0},
	}, codec, &nd.enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	nd.ingest(data, 11, nil)
	nd.step(11, &cfg)
	if s := nd.State().(spanning.State); s.Root != 1 || s.Parent != 3 {
		t.Fatalf("did not adopt after heartbeat revival: %v", s)
	}
}

// gatedNode is one standalone node with a single neighbor whose frames
// the test forges, driven through tick — the gate included — with its δ
// evaluations counted.
type gatedNode struct {
	t    *testing.T
	nd   *Node
	alg  *countingAlg
	tr   *ChanTransport
	peer Endpoint // the neighbor's end
	from graph.NodeID
	cfg  Config
	now  uint64
	seq  uint64
	// The neighbor's delta stream: its last anchor and that anchor's seq,
	// and the quiet report its heartbeats carry.
	anchor    runtime.State
	anchorSeq uint64
	q         wire.QuietReport
}

func newGatedNode(t *testing.T, id, neighbor graph.NodeID, self runtime.State, cfg Config) *gatedNode {
	cfg.fill()
	g := &gatedNode{t: t, alg: &countingAlg{steps: make([]int, id+1)}, tr: NewChanTransport(), from: neighbor, cfg: cfg}
	ep, err := g.tr.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if g.peer, err = g.tr.Open(neighbor); err != nil {
		t.Fatal(err)
	}
	g.nd = newNode(id, 0, 4, []graph.NodeID{neighbor}, []graph.Weight{1}, ep, wire.Spanning{}, g.alg)
	g.nd.setState(self)
	return g
}

// send puts one forged frame from the neighbor on the wire; the next
// tick ingests it.
func (g *gatedNode) send(f wire.Frame) {
	g.t.Helper()
	g.seq++
	f.Alg, f.Src, f.Seq = wire.Spanning{}.Code(), g.from, g.seq
	if f.Kind == wire.KindDelta && f.Base == nil {
		f.BaseSeq = g.seq // self-contained
		g.anchor, g.anchorSeq = f.State, g.seq
	}
	var b bits.Builder
	data, err := wire.Encode(f, wire.Spanning{}, &b, nil)
	if err != nil {
		g.t.Fatal(err)
	}
	g.peer.Send(g.nd.id, data)
	g.tr.Step(g.now)
}

// sendAnchor sends a self-contained heartbeat carrying s (nil: no
// register).
func (g *gatedNode) sendAnchor(s runtime.State) {
	g.send(wire.Frame{Kind: wire.KindDelta, State: s, Q: g.q})
}

// sendKeepAlive sends an empty-mask delta against the last anchor.
func (g *gatedNode) sendKeepAlive() {
	g.send(wire.Frame{Kind: wire.KindDelta, BaseSeq: g.anchorSeq, Base: g.anchor, State: g.anchor, Q: g.q})
}

// tick advances the node one tick and reports whether δ was evaluated.
func (g *gatedNode) tick() bool {
	g.now++
	before := g.alg.steps[g.nd.id]
	g.nd.tick(g.now, &g.cfg, nil)
	return g.alg.steps[g.nd.id] > before
}

// TestRoundDeadlinesThroughTick drives one node through tick with its
// neighbor silent after (at most) one frame, so every tick between two
// deadlines is skipped, and checks each deadline still falls on its
// tick: the freshness pull first at age pullAfter+1 and then every
// tick, a never-heard entry pulled first at now = pullAfter+1, the
// expiry counted on the tick the age first exceeds the TTL — also when
// the TTL is the shorter of the two — and the local quiet claim made on
// exactly qLastAct+StalenessTTL. Nothing else runs the round.
func TestRoundDeadlinesThroughTick(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ttl   int
		never bool // the neighbor is never heard
	}{
		{name: "heard", ttl: 24},
		{name: "heard-ttl-under-pull", ttl: 3},
		{name: "never-heard", ttl: 24, never: true},
		{name: "never-heard-ttl-under-pull", ttl: 3, never: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Node 3 is the root and its neighbor 7 its child: δ has nothing
			// to write whether 7 reads fresh or unknown, so only deadlines
			// can run the round. The register write below and the frame
			// both land in tick 1: lastSeen = qLastAct = 1.
			g := newGatedNode(t, 3, 7, spanning.State{Root: 3, Parent: trees.None, Dist: 0},
				Config{StalenessTTL: tc.ttl})
			if !tc.never {
				// The child already claims its own subtree quiet, so the
				// node's claim waits on nothing but its own window.
				g.q = wire.QuietReport{Epoch: 5, Sub: true, Count: 1}
				g.sendAnchor(spanning.State{Root: 3, Parent: 3, Dist: 1})
			}
			ttl := uint64(g.cfg.StalenessTTL)
			pullAfter := uint64(g.cfg.BackoffCap + g.cfg.BackoffCap/2 + 3)
			if under := pullAfter > ttl; under != (tc.ttl == 3) {
				t.Fatalf("test premise broken: pull threshold %d, TTL %d", pullAfter, ttl)
			}
			pulledAt := func(now uint64) bool {
				if tc.never {
					return now > pullAfter
				}
				return now-1 > pullAfter && now-1 <= ttl
			}
			wantPulls := int64(0)
			for g.now < 1+ttl+pullAfter+3 {
				ran := g.tick()
				now := g.now
				if pulledAt(now) {
					wantPulls++
				}
				expires, flips := !tc.never && now == 1+ttl+1, now == 1+ttl
				if want := now == 1 || pulledAt(now) || expires || flips; ran != want {
					t.Fatalf("tick %d: round ran = %v, want %v", now, ran, want)
				}
				if got := g.nd.stats[cResyncsSent].Load(); got != wantPulls {
					t.Fatalf("tick %d: %d pulls so far, want %d", now, got, wantPulls)
				}
				if got, want := g.nd.stats[cStalenessExpiries].Load() == 1, !tc.never && now > 1+ttl; got != want {
					t.Fatalf("tick %d: expiry counted = %v, want %v", now, got, want)
				}
				if got, want := g.nd.qOut.Sub, now >= 1+ttl; got != want {
					t.Fatalf("tick %d: local quiet claim = %v, want %v", now, got, want)
				}
			}
		})
	}
}

// TestInputsRunRoundSameTick: every kind of frame that changes what the
// round reads runs it in the tick the frame is ingested — a keep-alive
// reviving an expired entry, a forged anchor carrying no register over a
// cached one (and a register over none), a register change under an
// unchanged quiet report, an advert wiping the entry — and so does a
// register wiped from outside, while a keep-alive that changes nothing
// does not.
func TestInputsRunRoundSameTick(t *testing.T) {
	selfRoot := spanning.State{Root: 7, Parent: trees.None, Dist: 0}
	adopted := func(root graph.NodeID) spanning.State { return spanning.State{Root: root, Parent: 3, Dist: 1} }
	g := newGatedNode(t, 7, 3, selfRoot, Config{StalenessTTL: 6})
	// expect ticks once: the round must run, and leave the register at want.
	expect := func(what string, want spanning.State) {
		t.Helper()
		if !g.tick() {
			t.Fatalf("%s: round skipped in tick %d", what, g.now)
		}
		if got := g.nd.State(); !got.Equal(want) {
			t.Fatalf("%s: register %v, want %v", what, got, want)
		}
	}
	// idle ticks n times, none of which may run the round.
	idle := func(what string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if g.tick() {
				t.Fatalf("%s: round ran in tick %d with no input and no deadline", what, g.now)
			}
		}
	}

	g.sendAnchor(spanning.State{Root: 3, Parent: trees.None, Dist: 0})
	expect("first anchor", adopted(3))
	expect("tick after the write", adopted(3))
	g.sendKeepAlive()
	idle("keep-alive over a fresh entry", 1)

	// Silence: the entry is pulled from age pullAfter+1 and expires past
	// the TTL; the node falls back to its own root and, once the quiet
	// window has closed, has no deadline left.
	for g.nd.stats[cStalenessExpiries].Load() == 0 {
		g.tick()
	}
	expect("tick after the expiry's write", selfRoot)
	for !g.nd.qOut.Sub {
		g.tick()
	}
	idle("expired entry", 3*g.cfg.StalenessTTL)

	g.sendKeepAlive()
	expect("keep-alive reviving an expired entry", adopted(3))
	expect("tick after the write", adopted(3))

	g.sendAnchor(nil)
	expect("anchor with no register over a cached one", selfRoot)
	expect("tick after the write", selfRoot)
	g.sendAnchor(spanning.State{Root: 3, Parent: trees.None, Dist: 0})
	expect("anchor with a register over none", adopted(3))
	expect("tick after the write", adopted(3))

	g.sendAnchor(spanning.State{Root: 2, Parent: 5, Dist: 1})
	// The parent changed trees: reset first, adopt its new root next.
	expect("register change under an unchanged quiet report", selfRoot)
	expect("tick after the write", spanning.State{Root: 2, Parent: 3, Dist: 2})
	expect("tick after the write", spanning.State{Root: 2, Parent: 3, Dist: 2})

	g.send(wire.Frame{Kind: wire.KindAdvert})
	expect("advert wiping the entry", selfRoot)
	expect("tick after the write", selfRoot)

	// A wiped register is an input like any other.
	g.nd.setState(nil)
	expect("register wiped from outside", selfRoot)
}
