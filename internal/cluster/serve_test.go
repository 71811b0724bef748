package cluster

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/spanning"
)

// This file pins Serve's driver: W = GOMAXPROCS workers, each with one
// ticker and one wake channel, passes under the membership read lock,
// and data frames forwarded the moment they arrive. Every wait polls.

// serve runs cl.Serve on a goroutine of its own and returns the call
// that cancels it and hands back Serve's error.
func serve(cl *Cluster) func() error {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cl.Serve(ctx) }()
	return func() error {
		cancel()
		return <-done
	}
}

// waitFor polls cond every millisecond until it holds, failing the test
// after limit.
func waitFor(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(limit); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%s: not within %s", what, limit)
		}
	}
}

// localTickOf reads a served node's clock.
func localTickOf(nd *Node) uint64 {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.localTick
}

// TestServeTwice: a cluster served, stopped and served again runs its
// nodes both times, and a Serve called while another runs refuses to
// start a second set of drivers.
func TestServeTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	tr := NewUDPTransport()
	defer tr.Close()
	cl, err := New(graph.Ring(6), spanning.Algorithm{}, tr, Config{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		sent := cl.Stats().FramesSent
		stop := serve(cl)
		waitFor(t, 5*time.Second, fmt.Sprintf("round %d sends frames", round), func() bool {
			return cl.Stats().FramesSent > sent
		})
		if round == 1 {
			if err := stop(); !errors.Is(err, context.Canceled) {
				t.Fatalf("round 1: Serve returned %v, want context.Canceled", err)
			}
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		second := make(chan error, 1)
		go func() { second <- cl.Serve(ctx) }()
		select {
		case err := <-second:
			if err == nil || errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("a concurrent Serve returned %v, want a refusal while the first runs", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a concurrent Serve is still running")
		}
		cancel()
		if err := stop(); !errors.Is(err, context.Canceled) {
			t.Fatalf("round 2: Serve returned %v, want context.Canceled", err)
		}
	}
}

// TestServeGoroutineBudget: serving 64 nodes costs the Serve call's own
// goroutine plus one per worker, not one per node.
func TestServeGoroutineBudget(t *testing.T) {
	const n = 64
	cl, err := New(graph.Ring(n), spanning.Algorithm{}, deafTransport{}, Config{Interval: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	base := goruntime.NumGoroutine()
	stop := serve(cl)
	defer stop()
	// Every node has ticked twice, so every worker is running.
	waitFor(t, 10*time.Second, "every node ticks", func() bool {
		for _, v := range cl.Graph().Nodes() {
			if localTickOf(cl.Node(v)) < 2 {
				return false
			}
		}
		return true
	})
	if got, budget := goruntime.NumGoroutine()-base, goruntime.GOMAXPROCS(0)+1; got > budget {
		t.Fatalf("Serve of %d nodes added %d goroutines, want at most %d", n, got, budget)
	}
}

// TestServeForwardsOnArrival: a packet routed end to end over an
// 8-node path crosses its 7 hops while the destination's clock advances
// by at most 2 ticks — its source forwards it in the wake pass Launch
// signals, and each hop is one datagram flight, not one tick.
func TestServeForwardsOnArrival(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	const n = 8
	tr := NewUDPTransport()
	defer tr.Close()
	cl, err := New(graph.Path(n), spanning.Algorithm{}, tr, Config{Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(cl)
	stop := serve(cl)
	defer stop()
	waitFor(t, 30*time.Second, "quiet announced", cl.QuietAnnounced)
	// Worker 0's tick passes are Serve's cluster clock, so the quiet
	// count runs here as it does in lockstep.
	if q, tk, g := cl.QuietFor(), cl.Ticks(), cl.Metrics().Snapshot()["ss_cluster_quiet_ticks"]; q == 0 || tk == 0 || g == 0 {
		t.Fatalf("announced, but QuietFor=%d Ticks=%d ss_cluster_quiet_ticks=%v, want all > 0", q, tk, g)
	}
	dst := cl.Node(n)
	send := func() (hops int, ticks uint64) {
		before, tick0 := gw.Stats(), localTickOf(dst)
		gw.Launch([]routing.Pair{{Src: 1, Dst: n}})
		waitFor(t, 30*time.Second, "delivery", func() bool { return gw.Stats().Delivered > before.Delivered })
		return gw.Stats().HopsTotal - before.HopsTotal, localTickOf(dst) - tick0
	}
	send() // the first packet may still meet a labeling refresh in flight
	if hops, ticks := send(); hops < 5 || ticks > 2 {
		t.Fatalf("a %d-hop packet took %d destination ticks, want at least 5 hops within 2 ticks", hops, ticks)
	}
}

// TestServeLaunchNeedsNoTick: a packet launched on a served cluster
// whose Interval never elapses still crosses a legitimate 6-node path
// tree. Launch wakes the source's worker, which forwards the packet in
// a wake pass, and every later hop is an arrival, so no node ticks.
func TestServeLaunchNeedsNoTick(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	const n = 6
	tr := NewUDPTransport()
	defer tr.Close()
	cl, err := New(graph.Path(n), spanning.Algorithm{}, tr, Config{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(1); v <= n; v++ {
		cl.SetState(v, spanning.State{Root: 1, Parent: v - 1, Dist: int(v) - 1})
	}
	gw := NewGateway(cl)
	stop := serve(cl)
	defer stop()
	waitFor(t, 10*time.Second, "Serve installs its wake channels", func() bool { return cl.wakes.Load() != nil })
	gw.Launch([]routing.Pair{{Src: 1, Dst: n}})
	waitFor(t, 30*time.Second, "delivery", func() bool { return gw.Stats().Delivered == 1 })
	if hops, ticks := gw.Stats().HopsTotal, cl.Ticks(); hops != n-1 || ticks != 0 {
		t.Fatalf("delivered in %d hops after %d cluster ticks, want %d hops and no tick", hops, ticks, n-1)
	}
}

// TestRecycledNeighbourStartsFresh: a neighbour id recycled by two
// membership operations inside one Interval of a served cluster — the
// crash and the rejoin of the same id — starts from zero at every
// neighbour: no seq filter, anchor or cached register of the old
// incarnation survives, though the rejoiner's advert (and every frame
// after it) is lost.
func TestRecycledNeighbourStartsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	ft := NewFaultTransport(NewUDPTransport(), FaultConfig{Seed: 5, Loss: 1})
	ft.SetEnabled(false)
	defer ft.Close()
	const interval = 20 * time.Millisecond
	cl, err := New(graph.Path(3), spanning.Algorithm{}, ft, Config{Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	stop := serve(cl)
	defer stop()
	const a, b = graph.NodeID(2), graph.NodeID(3)
	record := func() peerState {
		cl.memMu.RLock()
		defer cl.memMu.RUnlock()
		nd := cl.nodeLocked(a)
		nd.mu.Lock()
		defer nd.mu.Unlock()
		j, _ := slices.BinarySearch(nd.neighbors, b)
		return nd.nbr[j]
	}
	waitFor(t, 10*time.Second, "2 hears 3", func() bool {
		r := record()
		return r.lastSeq > 0 && r.anchor != nil
	})
	// From here every frame is lost. Two more ticks at a drain whatever
	// was already on its way from the old incarnation.
	ft.SetEnabled(true)
	tick := localTickOf(cl.Node(a))
	waitFor(t, 10*time.Second, "2 drains", func() bool { return localTickOf(cl.Node(a)) >= tick+2 })

	start := time.Now()
	if err := cl.Crash(b); err != nil {
		t.Fatal(err)
	}
	if err := cl.Join(b, []graph.Edge{{U: b, V: a, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= interval {
		t.Logf("crash and rejoin took %s, more than one Interval", d)
	}
	tick = localTickOf(cl.Node(a))
	waitFor(t, 10*time.Second, "2 ticks on", func() bool { return localTickOf(cl.Node(a)) >= tick+3 })
	if r := record(); r.lastSeq != 0 || r.lastSeen != 0 || r.cache != nil || r.anchor != nil || r.anchorSeq != 0 {
		t.Fatalf("2's record of the recycled id 3 kept the old incarnation's state: %+v", r)
	}
}
