package cluster

import (
	"math/rand"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/spanning"
	"silentspan/internal/trees"
	"silentspan/internal/wire"
)

// announceBound is a generous detector-latency budget for a converged
// cluster: the local-quiet window, one staleness TTL of report decay,
// and a per-level propagation allowance over the whole cluster.
func announceBound(cl *Cluster) int {
	return 2*cl.cfg.StalenessTTL + (cl.Nodes()+2)*(cl.cfg.BackoffCap+2)
}

// tickUntilAnnounced ticks until the in-band detector announces,
// asserting the ground-truth safety property the cert campaign also
// enforces: the announcement is never active in a tick where a
// register changed.
func tickUntilAnnounced(t *testing.T, cl *Cluster, bound int) int {
	t.Helper()
	for i := 0; i < bound; i++ {
		if cl.QuietAnnounced() {
			return i
		}
		cl.Tick()
		if cl.QuietAnnounced() && cl.ChangedLastTick() > 0 {
			t.Fatalf("false positive: announcement active in a tick with %d register changes",
				cl.ChangedLastTick())
		}
	}
	t.Fatalf("no announcement within %d ticks (quiet for %d)", bound, cl.QuietFor())
	return 0
}

// TestQuietDetectorAnnounces: on every always-on algorithm and test
// graph, a converged cluster announces its own silence in-band — no
// coordinator — within the documented latency bound, and delivers the
// transition on the event channel.
func TestQuietDetectorAnnounces(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, g := range testGraphs(rng) {
		for _, alg := range testAlgorithms() {
			t.Run(name+"/"+alg.Name(), func(t *testing.T) {
				cl, err := New(g, alg, NewChanTransport(), Config{})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Stop()
				cl.InitArbitrary(rng)
				converge(t, cl, 4000)
				ticks := tickUntilAnnounced(t, cl, announceBound(cl))
				t.Logf("announced %d ticks after quiet", ticks)
				if cl.QuietEpoch() == 0 {
					t.Fatal("announcement carries epoch 0")
				}
				select {
				case ev := <-cl.QuietEvents():
					if !ev.Announced {
						t.Fatalf("first quiet event is a retraction: %+v", ev)
					}
					if ev.Root != cl.Graph().MinID() {
						t.Fatalf("announcing root %d, want minimum identity %d", ev.Root, cl.Graph().MinID())
					}
				default:
					t.Fatal("announcement fired but no event delivered")
				}
				snap := cl.Metrics().Snapshot()
				if snap["ss_cluster_detected_quiet"] != 1 {
					t.Fatalf("ss_cluster_detected_quiet = %v, want 1", snap["ss_cluster_detected_quiet"])
				}
			})
		}
	}
}

// TestQuietDetectorRetractsOnWrite: a register write anywhere retracts
// an active announcement (the epoch bump dominates the stale claim),
// and the cluster re-announces at a strictly higher epoch once it has
// re-stabilized.
func TestQuietDetectorRetractsOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomConnected(10, 0.3, rng)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rng)
	converge(t, cl, 4000)
	tickUntilAnnounced(t, cl, announceBound(cl))
	first := cl.QuietEpoch()
	<-cl.QuietEvents() // drain the fire event

	cl.Corrupt(1, rng)
	// Retraction travels up the tree at urgent (minGap) cadence.
	bound := announceBound(cl)
	retracted := false
	for i := 0; i < bound; i++ {
		cl.Tick()
		if !cl.QuietAnnounced() {
			retracted = true
			break
		}
	}
	if !retracted {
		t.Fatalf("announcement not retracted within %d ticks of a corruption", bound)
	}
	select {
	case ev := <-cl.QuietEvents():
		if ev.Announced {
			t.Fatalf("expected retraction event, got %+v", ev)
		}
	default:
		t.Fatal("retraction happened but no event delivered")
	}
	if snap := cl.Metrics().Snapshot(); snap["ss_cluster_detected_quiet"] != 0 {
		t.Fatalf("ss_cluster_detected_quiet = %v after retraction, want 0", snap["ss_cluster_detected_quiet"])
	}

	converge(t, cl, 4000)
	tickUntilAnnounced(t, cl, announceBound(cl))
	if again := cl.QuietEpoch(); again <= first {
		t.Fatalf("re-announced at epoch %d, want > %d (the corruption's write must dominate)", again, first)
	}
}

// TestQuietDetectorChurn: membership events retract the announcement
// (they bump epochs cluster-wide through the remap), and the reshaped
// cluster re-announces for its new size — the coverage count tracks n.
func TestQuietDetectorChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Ring(8)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rng)
	converge(t, cl, 4000)
	tickUntilAnnounced(t, cl, announceBound(cl))
	<-cl.QuietEvents()

	// Crash a non-root member: no goodbye, neighbors find out by TTL.
	if err := cl.Crash(5); err != nil {
		t.Fatal(err)
	}
	bound := 4*cl.cfg.StalenessTTL + announceBound(cl)
	for i := 0; cl.QuietAnnounced(); i++ {
		if i >= bound {
			t.Fatalf("announcement not retracted within %d ticks of a crash", bound)
		}
		cl.Tick()
	}

	// The survivors re-stabilize around the hole and re-announce with
	// count == the new n.
	converge(t, cl, 6000)
	tickUntilAnnounced(t, cl, bound)
	if cl.Nodes() != 7 {
		t.Fatalf("expected 7 survivors, have %d", cl.Nodes())
	}

	// A rejoin retracts again and the full ring re-announces.
	if err := cl.Join(5, []graph.Edge{{U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}}); err != nil {
		t.Fatal(err)
	}
	converge(t, cl, 6000)
	tickUntilAnnounced(t, cl, bound)
	if cl.Nodes() != 8 {
		t.Fatalf("expected 8 members after rejoin, have %d", cl.Nodes())
	}
}

// TestRunUntilQuietClampsToEffectiveCadence: regression for the quiet
// window clamping only to HeartbeatEvery+1 — with back-off enabled the
// keep-alive gap legitimately grows to BackoffCap, so a caller's tiny
// window must widen past the cap, or quiet can be declared while a
// lost-keep-alive repair is still pending between backed-off frames.
func TestRunUntilQuietClampsToEffectiveCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := graph.Path(5)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{StalenessTTL: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if cl.cfg.BackoffCap <= cl.cfg.HeartbeatEvery {
		t.Fatalf("test premise broken: BackoffCap %d not beyond HeartbeatEvery %d",
			cl.cfg.BackoffCap, cl.cfg.HeartbeatEvery)
	}
	cl.InitArbitrary(rng)
	if _, ok := cl.RunUntilQuiet(4000, 1); !ok {
		t.Fatal("no quiet")
	}
	// The declared quiet must have held for more than the back-off gap,
	// not just HeartbeatEvery+1 ticks.
	if got := cl.QuietFor(); got <= uint64(cl.cfg.BackoffCap) {
		t.Fatalf("quiet declared after only %d quiet ticks; effective cadence is %d",
			got, cl.cfg.BackoffCap)
	}

	// With the back-off pinned to the base cadence (BackoffCap ==
	// HeartbeatEvery) the clamp falls back to HeartbeatEvery+1.
	cl2, err := New(graph.Path(5), spanning.Algorithm{}, NewChanTransport(),
		Config{StalenessTTL: 42, BackoffCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Stop()
	cl2.InitArbitrary(rng)
	if _, ok := cl2.RunUntilQuiet(4000, 1); !ok {
		t.Fatal("no quiet at the pinned cadence")
	}
	if got := cl2.QuietFor(); got <= uint64(cl2.cfg.HeartbeatEvery) {
		t.Fatalf("quiet declared after only %d quiet ticks at the pinned cadence", got)
	}
}

// TestTicksToQuietResetsOnNewRun: regression for the convergence gauge
// surviving into the next run — a scrape during re-stabilization must
// read 0, not the previous run's value.
func TestTicksToQuietResetsOnNewRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cl, err := New(graph.Ring(6), spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rng)
	if _, ok := cl.RunUntilQuiet(4000, quietTicks); !ok {
		t.Fatal("no quiet")
	}
	if v := cl.Metrics().Snapshot()["ss_cluster_ticks_to_quiet"]; v <= 0 {
		t.Fatalf("ticks_to_quiet = %v after a successful run, want > 0", v)
	}
	cl.Corrupt(3, rng)
	// A run too short to requiet: the stale measurement must be gone.
	cl.RunUntilQuiet(1, quietTicks)
	if v := cl.Metrics().Snapshot()["ss_cluster_ticks_to_quiet"]; v != 0 {
		t.Fatalf("ticks_to_quiet = %v mid re-stabilization, want 0", v)
	}
	if _, ok := cl.RunUntilQuiet(4000, quietTicks); !ok {
		t.Fatal("no requiet")
	}
	if v := cl.Metrics().Snapshot()["ss_cluster_ticks_to_quiet"]; v <= 0 {
		t.Fatalf("ticks_to_quiet = %v after requiet, want > 0", v)
	}
}

// TestClusterWriteCounter: the cluster-level write counter the Serve
// gateway poller reads covers every setState — δ-driven and out-of-band
// — and the func-backed /metrics counter still equals Stats exactly.
func TestClusterWriteCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cl, err := New(graph.Ring(6), spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rng)
	converge(t, cl, 4000)
	st := cl.Stats()
	if snap := cl.Metrics().Snapshot(); snap["ss_cluster_register_writes_total"] != float64(st.RegisterWrites) {
		t.Fatalf("metrics writes %v != stats writes %d",
			snap["ss_cluster_register_writes_total"], st.RegisterWrites)
	}
	// The atomic poller counter includes the 6 InitArbitrary writes on
	// top of the δ-driven ones.
	if got, want := cl.regWrites.Load(), int64(st.RegisterWrites+6); got != want {
		t.Fatalf("cluster write counter %d, want %d (δ writes + InitArbitrary)", got, want)
	}
	before := cl.regWrites.Load()
	cl.Corrupt(2, rng)
	if got := cl.regWrites.Load(); got != before+2 {
		t.Fatalf("out-of-band writes not counted: %d, want %d", got, before+2)
	}
}

// TestFreshnessPullBoundary: table test around the pullAfter threshold
// in step, driven through tick — the ages where a quiet neighbor is
// legitimately backed off versus where a keep-alive must have been lost
// and an anchor is pulled.
func TestFreshnessPullBoundary(t *testing.T) {
	alg := spanning.Algorithm{}
	codec, err := wire.ForAlgorithm(alg)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{}
	base.fill()
	pullAfter := uint64(base.BackoffCap + base.BackoffCap/2 + 3)
	if pullAfter+1 > uint64(base.StalenessTTL) {
		t.Fatalf("test premise broken: pull threshold %d beyond the TTL %d", pullAfter, base.StalenessTTL)
	}
	cases := []struct {
		name     string
		never    bool   // no frame ever accepted (lastSeen == 0)
		age      uint64 // now - lastSeen for heard entries; = now for never-heard
		wantPull bool
	}{
		{name: "heard-at-threshold", age: pullAfter, wantPull: false},
		{name: "heard-past-threshold", age: pullAfter + 1, wantPull: true},
		{name: "never-heard-at-threshold", never: true, age: pullAfter, wantPull: false},
		{name: "never-heard-past-threshold", never: true, age: pullAfter + 1, wantPull: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tr := NewChanTransport()
			ep, err := tr.Open(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Open(2); err != nil {
				t.Fatal(err)
			}
			nd := newNode(1, 0, 2, []graph.NodeID{2}, []graph.Weight{1}, ep, codec, alg)
			nd.setState(spanning.State{Root: 1, Parent: trees.None, Dist: 0})
			now := tc.age
			if !tc.never {
				now = tc.age + 5 // any origin; only the age matters
				nd.nbr[0].cache = spanning.State{Root: 1, Parent: 1, Dist: 1}
				nd.nbr[0].lastSeen = now - tc.age
			}
			nd.tick(now, &cfg, nil)
			pulls := nd.stats[cResyncsSent].Load()
			if got := pulls > 0; got != tc.wantPull {
				t.Fatalf("pull issued = %v at age %d (threshold %d), want %v",
					got, tc.age, pullAfter, tc.wantPull)
			}
			// On either side of the threshold the next tick is the deadline
			// that round published: nothing was written, and the gate must
			// still not skip it.
			nd.tick(now+1, &cfg, nil)
			if got := nd.stats[cResyncsSent].Load() - pulls; got != 1 {
				t.Fatalf("%d pulls in the tick after age %d, want 1", got, tc.age)
			}
			if got := nd.stats[cRegisterWrites].Load(); got != 0 {
				t.Fatalf("δ wrote %d times: the second tick was to run on its deadline alone", got)
			}
		})
	}
}
