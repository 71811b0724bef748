package cluster

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
)

// This file pins the round gate in Node.tick and the due set in Tick: a
// skipped round or node tick must be one that would have changed
// nothing, a quiet node must actually skip, and an idle tick must stay
// off the allocator.

// twin is two lockstep clusters built from one seed. gated runs as
// shipped; every tick the test marks every live node of ref due and
// forces it through its round, which is what every node did before the
// due set and the gate existed.
type twin struct {
	t          *testing.T
	gated, ref *Cluster
	gws        [2]*Gateway
	fts        [2]*FaultTransport
}

func newTwin(t *testing.T, seed int64, n int, faults *FaultConfig) *twin {
	tw := &twin{t: t}
	for i := range tw.gws {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(n, 8/float64(n), rng)
		var tr Transport = NewChanTransport()
		if faults != nil {
			tw.fts[i] = NewFaultTransport(tr, *faults)
			tr = tw.fts[i]
		}
		cl, err := New(g, spanning.Algorithm{}, tr, Config{StalenessTTL: 24})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Stop)
		// Short rings: the hash is taken every tick, so a divergence shows
		// in the tick it happens and the rings need no more history.
		cl.EnableFlightRecorder(48)
		tw.gws[i] = NewGateway(cl)
		cl.InitArbitrary(rng)
		if i == 0 {
			tw.gated = cl
		} else {
			tw.ref = cl
		}
	}
	return tw
}

// both applies one between-tick operation to each cluster.
func (tw *twin) both(op func(cl *Cluster, gw *Gateway)) {
	op(tw.gated, tw.gws[0])
	op(tw.ref, tw.gws[1])
}

// tick runs one Tick of each cluster and fails on the first observable
// difference between them.
func (tw *twin) tick() {
	tw.t.Helper()
	for _, nd := range tw.ref.nodes {
		if nd != nil {
			tw.ref.markDue(nd.slot)
			nd.mu.Lock()
			nd.dirty = true
			nd.mu.Unlock()
		}
	}
	tw.gated.Tick()
	tw.ref.Tick()
	at := tw.gated.Ticks()
	if a, b := tw.gated.Snapshot(nil), tw.ref.Snapshot(nil); !reflect.DeepEqual(a, b) {
		tw.t.Fatalf("tick %d: registers differ:\n%v\n%v", at, a, b)
	}
	if a, b := tw.gated.Stats(), tw.ref.Stats(); a != b {
		tw.t.Fatalf("tick %d: stats differ:\n%+v\n%+v", at, a, b)
	}
	if tw.fts[0] != nil {
		if a, b := tw.fts[0].Stats(), tw.fts[1].Stats(); a != b {
			tw.t.Fatalf("tick %d: fault stats differ: %+v vs %+v", at, a, b)
		}
	}
	if a, b := tw.gated.QuietAnnounced(), tw.ref.QuietAnnounced(); a != b {
		tw.t.Fatalf("tick %d: announced %v vs %v", at, a, b)
	}
	if a, b := tw.gated.QuietEpoch(), tw.ref.QuietEpoch(); a != b {
		tw.t.Fatalf("tick %d: announced epoch %d vs %d", at, a, b)
	}
	if a, b := tw.gated.ChangedLastTick(), tw.ref.ChangedLastTick(); a != b {
		tw.t.Fatalf("tick %d: %d vs %d registers changed", at, a, b)
	}
	if a, b := tw.gws[0].Stats(), tw.gws[1].Stats(); a != b {
		tw.t.Fatalf("tick %d: gateway stats differ:\n%+v\n%+v", at, a, b)
	}
	if a, b := flightHash(tw.gated), flightHash(tw.ref); a != b {
		tw.t.Fatalf("tick %d: flight rings differ: %#x vs %#x", at, a, b)
	}
	// A node the due set skipped reads as if it had run.
	for i, nd := range tw.gated.nodes {
		if nd == nil {
			continue
		}
		_, _, a, _, _ := nd.adminSnapshot()
		_, _, b, _, _ := tw.ref.nodes[i].adminSnapshot()
		if a != b {
			tw.t.Fatalf("tick %d: node %d clock %d vs %d", at, nd.id, a, b)
		}
		qa := nodeAdmin{c: tw.gated, nd: nd}.AdminQuiet()
		qb := nodeAdmin{c: tw.ref, nd: tw.ref.nodes[i]}.AdminQuiet()
		if qa != qb {
			tw.t.Fatalf("tick %d: node %d quiet view %+v vs %+v", at, nd.id, qa, qb)
		}
	}
}

// tickUntil ticks until cond holds on the gated cluster.
func (tw *twin) tickUntil(what string, bound int, cond func(cl *Cluster) bool) {
	tw.t.Helper()
	for i := 0; !cond(tw.gated); i++ {
		if i == bound {
			tw.t.Fatalf("%s: not within %d ticks", what, bound)
		}
		tw.tick()
	}
}

// TestIdleRoundSkipEquivalent is the gate's oracle: through
// convergence, announcement, idle ticks, a routed batch, register
// corruption, a crash, the rejoin of the same id and the
// re-announcement, a cluster that skips rounds and one that runs every
// round agree after every tick on every register, counter, fault
// decision, detector output, packet outcome and recorded event — on a
// clean transport and on a chaotic one, at a size that spans three Tick
// shards. A third pair runs on a transport lossy enough that cache
// entries expire and anchors are pulled all the time.
func TestIdleRoundSkipEquivalent(t *testing.T) {
	const n = 2*tickShard + 7
	chaos := &FaultConfig{Seed: 5, Loss: 0.02, Dup: 0.01, Corrupt: 0.005, Delay: 0.05, MaxDelayTicks: 3}
	for name, faults := range map[string]*FaultConfig{"clean": nil, "chaotic": chaos} {
		t.Run(name, func(t *testing.T) {
			tw := newTwin(t, 31, n, faults)
			cfg := tw.gated.cfg
			quiet := func(cl *Cluster) bool { return cl.QuietFor() >= uint64(cfg.BackoffCap+quietTicks) }
			bound := 40 * announceBound(tw.gated)

			tw.tickUntil("converge", bound, quiet)
			tw.tickUntil("announce", bound, (*Cluster).QuietAnnounced)
			for i := 0; i < 2*cfg.BackoffCap+2; i++ {
				tw.tick()
			}
			if st := tw.gated.Stats(); faults == nil && st.StalenessExpiries+st.ResyncsSent != 0 {
				t.Fatalf("clean idle cluster expired or pulled: %+v", st.NodeStats)
			}
			tw.both(func(cl *Cluster, gw *Gateway) {
				gw.Launch(routing.UniformPairs(cl.Graph().Nodes(), 24, rand.New(rand.NewSource(32))))
			})
			for i := 0; i < 12; i++ {
				tw.tick()
			}

			tw.both(func(cl *Cluster, _ *Gateway) { cl.Corrupt(3, rand.New(rand.NewSource(33))) })
			tw.tickUntil("retract", bound, func(cl *Cluster) bool { return !cl.QuietAnnounced() })

			// A non-root victim, rejoined over the edges it had.
			victim := graph.NodeID(n / 2)
			var edges []graph.Edge
			for _, u := range tw.gated.Graph().Neighbors(victim) {
				w, _ := tw.gated.Graph().EdgeWeight(victim, u)
				edges = append(edges, graph.Edge{U: victim, V: u, W: w})
			}
			tw.both(func(cl *Cluster, _ *Gateway) {
				if err := cl.Crash(victim); err != nil {
					t.Fatal(err)
				}
			})
			for i := 0; i < 2*cfg.BackoffCap; i++ {
				tw.tick()
			}
			tw.both(func(cl *Cluster, _ *Gateway) {
				if err := cl.Join(victim, edges); err != nil {
					t.Fatal(err)
				}
			})
			tw.tickUntil("reconverge", bound, quiet)
			tw.tickUntil("re-announce", bound, (*Cluster).QuietAnnounced)
			tw.both(func(_ *Cluster, gw *Gateway) { gw.Expire() })
			tw.tick()
			if gs := tw.gws[0].Stats(); gs.Delivered == 0 {
				t.Fatalf("routed batch did not run: %+v", gs)
			}
		})
	}
	t.Run("lossy", func(t *testing.T) {
		tw := newTwin(t, 37, n, &FaultConfig{Seed: 7, Loss: 0.7, Delay: 0.2, MaxDelayTicks: 4})
		for i := 0; i < 5*tw.gated.cfg.StalenessTTL; i++ {
			tw.tick()
		}
		if st := tw.gated.Stats(); st.StalenessExpiries == 0 || st.ResyncsSent == 0 || st.DeltaMisses == 0 {
			t.Fatalf("the lossy run exercised no expiry, pull or delta miss: %+v", st.NodeStats)
		}
	})
}

// countingAlg counts δ evaluations per node id. Only a node's owner
// writes its slot; the tests read them between ticks.
type countingAlg struct {
	spanning.Algorithm
	steps []int
}

func (a *countingAlg) Step(v runtime.View) runtime.State {
	a.steps[v.ID]++
	return a.Algorithm.Step(v)
}

// raceEnabled says the test binary was built with -race.
var raceEnabled = func() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}()

// idleCluster builds the idle-route-chan shape at n nodes — converged,
// announced, keep-alives fully backed off — with every node's δ counted.
func idleCluster(t testing.TB, n int) (*Cluster, *countingAlg) {
	return quietCluster(t, n, Config{StalenessTTL: 128})
}

// quietCluster is idleCluster under any configuration.
func quietCluster(t testing.TB, n int, cfg Config) (*Cluster, *countingAlg) {
	rng := rand.New(rand.NewSource(int64(n)))
	g := graph.RandomConnected(n, 8/float64(n), rng)
	alg := &countingAlg{steps: make([]int, slices.Max(g.Nodes())+1)}
	cl, err := New(g, alg, NewChanTransport(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	cl.InitArbitrary(rng)
	if _, ok := cl.RunUntilQuiet(32*n, 4); !ok {
		t.Fatal("no quiet")
	}
	for i := 0; !cl.QuietAnnounced(); i++ {
		if i == 8*cl.cfg.StalenessTTL+64 {
			t.Fatal("silence never announced")
		}
		cl.Tick()
	}
	// A sender re-anchors every fullEvery broadcasts; until then a
	// register that moved after its last anchor rides every keep-alive as
	// a non-empty delta. Let every stream re-anchor on the silent register.
	for i := 0; i < (fullEvery+1)*cl.cfg.BackoffCap; i++ {
		cl.Tick()
	}
	return cl, alg
}

// TestIdleClusterSkipsRounds measures the traffic instead of assuming
// it: over an announced-idle window a node evaluates δ a handful of
// times (when a neighbor's freshness deadline comes round), not once per
// tick; and a register write — by δ or from outside — is always followed
// by a δ evaluation in the next tick.
func TestIdleClusterSkipsRounds(t *testing.T) {
	const n, window = 256, 62
	cl, alg := idleCluster(t, n)
	steps := func() (total int) {
		for _, k := range alg.steps {
			total += k
		}
		return total
	}
	before := steps()
	for i := 0; i < window; i++ {
		cl.Tick()
		if cl.ChangedLastTick() != 0 {
			t.Fatalf("idle tick %d changed %d registers", i, cl.ChangedLastTick())
		}
	}
	perNode := float64(steps()-before) / n
	t.Logf("%.2f δ evaluations per node over %d idle ticks", perNode, window)
	if perNode > 4 {
		t.Fatalf("%.2f δ evaluations per node over %d idle ticks, want ≤ 4", perNode, window)
	}

	// An out-of-band write: the node evaluates δ in the next tick and
	// repairs the register; that write is followed by another evaluation,
	// which finds nothing left to do.
	victim := cl.nodes[n-1]
	legit := victim.State()
	count := func() int { return alg.steps[victim.id] }
	cl.SetState(victim.id, spanning.State{Root: victim.id, Parent: 0, Dist: 0})
	for tick, wantWrite := range []bool{true, false} {
		at, writes := count(), victim.Stats().RegisterWrites
		cl.Tick()
		if count() != at+1 {
			t.Fatalf("tick %d after the write: %d δ evaluations, want 1", tick+1, count()-at)
		}
		if wrote := victim.Stats().RegisterWrites > writes; wrote != wantWrite {
			t.Fatalf("tick %d after the write: δ wrote = %v, want %v", tick+1, wrote, wantWrite)
		}
	}
	if !victim.State().Equal(legit) {
		t.Fatalf("register %v after repair, want %v", victim.State(), legit)
	}
}

// TestIdleTickAllocs: an idle tick of the same cluster allocates at most
// a quarter of an object per node — the frames the due keep-alives are
// encoded into and the occasional anchor's register, nothing per
// received frame and nothing per node.
func TestIdleTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const n = 256
	cl, _ := idleCluster(t, n)
	perTick := testing.AllocsPerRun(62, cl.Tick)
	t.Logf("%.0f allocations per idle tick, %.3f per node", perTick, perTick/n)
	if perTick/n > 0.25 {
		t.Fatalf("%.3f allocations per node per idle tick, want ≤ 0.25", perTick/n)
	}
}
