package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/routing"
	"silentspan/internal/spanning"
	"silentspan/internal/trace"
)

// TestFlightRecorderEndToEnd: a converged cluster with the recorder on
// yields a merged trace whose causal invariants both hold — the
// announcement is backed by subtree-quiet claims covering all n nodes,
// and every delivered packet has a contiguous hop chain. The same
// seeded episode with the recorder off puts exactly the same frames and
// bytes on the wire: arming it cannot change protocol behavior.
func TestFlightRecorderEndToEnd(t *testing.T) {
	episode := func(armed bool) (*Cluster, *graph.Graph) {
		rng := rand.New(rand.NewSource(21))
		g := graph.RandomConnected(12, 0.3, rng)
		cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Stop)
		if armed {
			cl.EnableFlightRecorder(0)
		}
		gw := NewGateway(cl)
		cl.InitArbitrary(rng)
		converge(t, cl, 4000)

		gw.Launch(routing.UniformPairs(g.Nodes(), 100, rng))
		for i := 0; i < 4*g.N() && gw.Outstanding() > 0; i++ {
			cl.Tick()
		}
		if n := gw.Outstanding(); n > 0 {
			t.Fatalf("%d packets unresolved on a clean transport", n)
		}
		tickUntilAnnounced(t, cl, announceBound(cl))
		return cl, g
	}
	cl, g := episode(true)
	off, _ := episode(false)
	if on, off := cl.Stats(), off.Stats(); on.FramesSent != off.FramesSent || on.BytesSent != off.BytesSent {
		t.Fatalf("arming the recorder changed the wire: %d frames / %d bytes armed, %d / %d disarmed",
			on.FramesSent, on.BytesSent, off.FramesSent, off.BytesSent)
	}

	// Collect over the admin hub, exactly as sstrace does.
	merged, rep, err := ops.MergeTraces(cl.AdminHub(), g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Visited() != g.N() {
		t.Fatalf("crawl visited %d of %d nodes", rep.Visited(), g.N())
	}
	if merged.Rings != g.N() {
		t.Fatalf("merged %d rings, want %d", merged.Rings, g.N())
	}
	if merged.FrameEdges == 0 {
		t.Fatal("no cross-node frame edges stitched")
	}
	if viol := merged.CheckAnnounceCoverage(); len(viol) != 0 {
		t.Fatalf("announce coverage violated:\n%v", viol)
	}
	if viol := merged.CheckPacketChains(); len(viol) != 0 {
		t.Fatalf("packet chains violated:\n%v", viol)
	}
	ann, ok := merged.LatestAnnounce()
	if !ok {
		t.Fatal("no announce event in the merged trace")
	}
	if ann.Arg != uint64(g.N()) {
		t.Fatalf("announce covers %d nodes, want %d", ann.Arg, g.N())
	}
	if len(merged.Timeline()) == 0 || len(merged.ChromeTrace()) == 0 {
		t.Fatal("empty timeline or chrome trace render")
	}
}

// TestFlightRecorderChurn: retiring nodes keep their causal history —
// the final ring (goodbye tx, retire marker) moves to the departed
// list and still merges, and the survivors re-announce with a trace
// that passes both invariants.
func TestFlightRecorderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.RandomConnected(10, 0.4, rng)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.EnableFlightRecorder(0)
	cl.InitArbitrary(rng)
	converge(t, cl, 4000)
	// Reach a full-coverage announcement before the churn: the
	// live-only assertions below need a historical announcement whose
	// causal support departs with the victim.
	tickUntilAnnounced(t, cl, announceBound(cl))
	n0 := g.N() // Leave mutates the graph in place

	// Pick a leaf-ish victim that keeps the graph connected: retire the
	// highest id with the cluster's own mutator validating connectivity.
	var victim graph.NodeID
	for _, id := range g.Nodes() {
		if id != g.MinID() {
			victim = max(victim, id)
		}
	}
	if err := cl.Leave(victim); err != nil {
		t.Skipf("Leave(%d): %v (graph would disconnect)", victim, err)
	}
	dep := cl.DepartedFlightTraces()
	if len(dep) != 1 || dep[0].Node != victim {
		t.Fatalf("departed traces = %+v, want one ring for node %d", dep, victim)
	}
	last := dep[0].Events[len(dep[0].Events)-1]
	if last.Kind != trace.Retire || last.Arg != 1 {
		t.Fatalf("departed ring's final event = %+v, want cooperative Retire", last)
	}
	sawGoodbye := false
	for _, ev := range dep[0].Events {
		if ev.Kind == trace.FrameTx && ev.Class == trace.ClassLeave {
			sawGoodbye = true
		}
	}
	if !sawGoodbye {
		t.Fatal("departed ring holds no goodbye FrameTx")
	}

	converge(t, cl, 4000)
	tickUntilAnnounced(t, cl, announceBound(cl))
	merged := trace.Merge(cl.FlightTraces())
	if merged.Rings != n0 { // n-1 live + 1 departed
		t.Fatalf("merged %d rings, want %d", merged.Rings, n0)
	}
	if viol := merged.CheckAnnounceCoverage(); len(viol) != 0 {
		t.Fatalf("announce coverage violated after churn:\n%v", viol)
	}
	ann, ok := merged.LatestAnnounce()
	if !ok || ann.Arg != uint64(n0-1) {
		t.Fatalf("latest announce = %+v, want coverage %d", ann, n0-1)
	}

	// A live-only merge (what an sstrace crawl sees: the admin plane
	// serves live members only) lacks the victim's ring, so the full
	// historical audit must flag the pre-churn announcement — its
	// supporting report departed with the victim — while the
	// latest-announcement check stays clean: current members back it.
	live := trace.Merge(liveOnly(cl, victim))
	if live.Rings != n0-1 {
		t.Fatalf("live-only merge has %d rings, want %d", live.Rings, n0-1)
	}
	if viol := live.CheckAnnounceCoverage(); len(viol) == 0 {
		t.Fatal("full historical audit on a live-only merge should flag the pre-churn announcement")
	}
	if viol := live.CheckLatestAnnounceCoverage(); len(viol) != 0 {
		t.Fatalf("latest-announcement check violated on live-only merge:\n%v", viol)
	}
}

// liveOnly filters a cluster's flight traces down to live members —
// the view an admin-plane crawl gets.
func liveOnly(cl *Cluster, departed graph.NodeID) []trace.NodeTrace {
	var out []trace.NodeTrace
	for _, tr := range cl.FlightTraces() {
		if tr.Node != departed {
			out = append(out, tr)
		}
	}
	return out
}

// TestFlightRecorderDisabledAndMetric: with the recorder off the admin
// route reports disabled and the exposition carries no trace metric;
// arming it with a tiny ring surfaces overwrites in
// ss_trace_dropped_total.
func TestFlightRecorderDisabledAndMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.Ring(8)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rng)
	for i := 0; i < 10; i++ {
		cl.Tick()
	}
	info, err := cl.AdminHub().Trace(g.MinID())
	if err != nil {
		t.Fatal(err)
	}
	if info.Enabled || len(info.Events) != 0 {
		t.Fatalf("recorder disabled but gettrace = %+v", info)
	}
	if _, ok := cl.Metrics().Snapshot()["ss_trace_dropped_total"]; ok {
		t.Fatal("ss_trace_dropped_total exposed with the recorder disarmed")
	}

	cl.EnableFlightRecorder(4) // tiny: overwrites guaranteed
	converge(t, cl, 4000)
	snap := cl.Metrics().Snapshot()
	dropped, ok := snap["ss_trace_dropped_total"]
	if !ok {
		t.Fatal("ss_trace_dropped_total missing with the recorder armed")
	}
	if dropped <= 0 {
		t.Fatalf("ss_trace_dropped_total = %v, want > 0 with 4-slot rings", dropped)
	}
	for _, tr := range cl.FlightTraces() {
		if len(tr.Events) > 4 {
			t.Fatalf("node %d ring holds %d events, cap 4", tr.Node, len(tr.Events))
		}
	}
}

// TestFlightRecorderConcurrentCollect: snapshotting rings and admin
// trace views while the cluster ticks is race-free (the -race matrix
// runs this package).
func TestFlightRecorderConcurrentCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.RandomConnected(10, 0.4, rng)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.EnableFlightRecorder(256)
	cl.InitArbitrary(rng)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hub := cl.AdminHub()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cl.FlightTraces()
			hub.Trace(g.MinID())
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for i := 0; i < 200; i++ {
		cl.Tick()
	}
	close(stop)
	wg.Wait()
	merged := trace.Merge(cl.FlightTraces())
	if len(merged.Events) == 0 {
		t.Fatal("no events recorded")
	}
}
