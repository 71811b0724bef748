package cluster

import (
	"testing"

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
