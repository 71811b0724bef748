package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/spanning"
)

// TestUDPClusterConverges: the free-running cluster over real loopback
// UDP sockets — every node on its own timer, no barriers — stabilizes
// the spanning substrate to the same silent tree the simulator
// certifies. The wall-clock budget is generous; the run typically
// settles in a few hundred milliseconds.
func TestUDPClusterConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	rng := rand.New(rand.NewSource(17))
	g := graph.RandomConnected(12, 0.3, rng)
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

	deadline := time.After(20 * time.Second)
	for {
		select {
		case <-deadline:
			cancel()
			<-served
			net, err := cl.Mirror()
			if err != nil {
				t.Fatal(err)
			}
			t.Fatalf("no silent projection within deadline; enabled=%v", net.Enabled())
		case <-time.After(50 * time.Millisecond):
		}
		net, err := cl.Mirror()
		if err != nil {
			t.Fatal(err)
		}
		if net.Silent() {
			if _, err := spanning.ExtractTree(net); err != nil {
				continue // silent projection of a mid-flight snapshot; keep waiting
			}
			cancel()
			<-served
			// Final check on the settled registers.
			net, err := cl.Mirror()
			if err != nil {
				t.Fatal(err)
			}
			if !net.Silent() {
				t.Fatal("cluster regressed after silence")
			}
			tr2, err := spanning.ExtractTree(net)
			if err != nil {
				t.Fatal(err)
			}
			if tr2.Root() != g.MinID() {
				t.Fatalf("root %d, want %d", tr2.Root(), g.MinID())
			}
			return
		}
	}
}

// TestUDPFaultWrapper: the fault wrapper composes with the async
// transport (inline decisions) and the cluster still converges.
func TestUDPFaultWrapper(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	rng := rand.New(rand.NewSource(19))
	g := graph.Ring(8)
	ft := NewFaultTransport(NewUDPTransport(), FaultConfig{
		Seed: 23, Loss: 0.1, Dup: 0.1, Corrupt: 0.05, Delay: 0.1, MaxDelay: 2 * time.Millisecond})
	defer ft.Close()
	cl, err := New(g, spanning.Algorithm{}, ft, Config{Interval: time.Millisecond, StalenessTTL: 64})
	if err != nil {
		t.Fatal(err)
	}
	cl.InitArbitrary(rng)

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- cl.Serve(ctx) }()
	defer func() { cancel(); <-served }()

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		net, err := cl.Mirror()
		if err != nil {
			t.Fatal(err)
		}
		if net.Silent() {
			if tr2, err := spanning.ExtractTree(net); err == nil && tr2.Root() == g.MinID() {
				if st := ft.Stats(); st.Lost == 0 {
					t.Logf("fault wrapper applied no losses: %+v", st)
				}
				return
			}
		}
	}
	t.Fatal("no convergence over faulty UDP within deadline")
}

// TestUDPDrainClearsInbox: as TestChanDrainClearsInbox, over sockets.
func TestUDPDrainClearsInbox(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets in -short mode")
	}
	tr := NewUDPTransport()
	defer tr.Close()
	a, err := tr.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	ep := b.(*udpEndpoint)
	queued := func() int {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return len(ep.in)
	}
	for i := 0; i < 5; i++ {
		a.Send(2, []byte{byte(i)})
	}
	waitFor(t, 5*time.Second, "five datagrams", func() bool { return queued() == 5 })
	if got := b.Drain(nil); len(got) != 5 {
		t.Fatalf("drained %d frames, want 5", len(got))
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for i, f := range ep.in[:cap(ep.in)] {
		if f != nil {
			t.Fatalf("inbox slot %d still holds a frame after Drain", i)
		}
	}
}
