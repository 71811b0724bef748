package cluster

import (
	"bytes"
	"context"
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/spanning"
)

// This file pins the lockstep driver: Tick is a parallel-for over the
// node slots, so it must hold no goroutine per node, its execution must
// not depend on how many workers ran it, and nil slots, joiners and a
// Stop in the middle must all be non-events. No sleeps, no wall clock.

// TestLockstepNoGoroutinePerNode: ticking a 512-node cluster leaves at
// most GOMAXPROCS goroutines more than before it existed (a helper may
// still be exiting when Tick returns) — the count does not grow with n.
func TestLockstepNoGoroutinePerNode(t *testing.T) {
	const n = 512
	g := graph.RandomConnected(n, 8/float64(n), rand.New(rand.NewSource(1)))
	limit := goruntime.NumGoroutine() + goruntime.GOMAXPROCS(0)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl.InitArbitrary(rand.New(rand.NewSource(2)))
	for i := 1; i <= 5; i++ {
		cl.Tick()
		if got := goruntime.NumGoroutine(); got > limit {
			t.Fatalf("%d goroutines after tick %d of a %d-node cluster, want at most %d", got, i, n, limit)
		}
	}
	cl.Stop()
	if got := goruntime.NumGoroutine(); got > limit {
		t.Fatalf("%d goroutines after Stop, want at most %d", got, limit)
	}
}

// TestLockstepParallelismIndependent: the TestSeededDeterminism witness
// — every node's flight ring, the registers, every counter — is the
// same whether one worker runs all the rounds inline or four share
// them, on a clean and on a faulty transport, at a size that spans
// several shards.
func TestLockstepParallelismIndependent(t *testing.T) {
	const n = 2*tickShard + 7
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, faulty := range []bool{false, true} {
		goruntime.GOMAXPROCS(1)
		h1, s1, g1, f1, t1 := traceRun(t, 7, n, faulty)
		goruntime.GOMAXPROCS(4)
		h4, s4, g4, f4, t4 := traceRun(t, 7, n, faulty)
		if h1 != h4 {
			t.Errorf("faulty=%v: trace hash %#x with 1 worker, %#x with 4", faulty, h1, h4)
		}
		if s1 != s4 || g1 != g4 || f1 != f4 || t1 != t4 {
			t.Errorf("faulty=%v: counts differ between 1 and 4 workers:\n%+v %+v %+v %d\n%+v %+v %+v %d",
				faulty, s1, g1, f1, t1, s4, g4, f4, t4)
		}
		if g1.Launched == 0 || g1.Delivered == 0 {
			t.Errorf("faulty=%v: routed batch did not run: %+v", faulty, g1)
		}
	}
}

// TestLockstepHolesAndChurn: crashed nodes leave nil slots in the middle
// of a shard; Tick skips them, and a rejoining node runs its first round
// in the very next Tick — no spawn step stands between Join and Tick.
func TestLockstepHolesAndChurn(t *testing.T) {
	const n = 3 * tickShard
	g := graph.Ring(n)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(4)))
	converge(t, cl, 100*n)

	// Two adjacent ring nodes from the middle of the second shard: the
	// survivors stay connected, as a path.
	a, b := graph.NodeID(tickShard+tickShard/2), graph.NodeID(tickShard+tickShard/2+1)
	for _, v := range []graph.NodeID{a, b} {
		if slot := cl.Node(v).slot; slot/tickShard != 1 {
			t.Fatalf("node %d sits in slot %d, outside the second shard", v, slot)
		}
		if err := cl.Crash(v); err != nil {
			t.Fatal(err)
		}
	}
	cl.Tick()
	if err := cl.Join(a, []graph.Edge{{U: a, V: a - 1, W: graph.Weight(a - 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Join(b, []graph.Edge{{U: b, V: a, W: graph.Weight(a)}, {U: b, V: b + 1, W: graph.Weight(b)}}); err != nil {
		t.Fatal(err)
	}
	cl.Tick()
	for _, v := range []graph.NodeID{a, b} {
		if st := cl.Node(v).Stats(); st.AdvertsSent != 1 || st.AnchorsSent != 1 {
			t.Fatalf("joiner %d did not run in the first Tick after Join: %+v", v, st)
		}
	}
	converge(t, cl, 100*n)
	checkSilentTree(t, cl)
	if cl.Nodes() != n {
		t.Fatalf("%d nodes after rejoin, want %d", cl.Nodes(), n)
	}
}

// TestLockstepStopThenTick: Stop has nothing to tear down, so a stopped
// cluster ticks on and converges — at the sizes around one shard, where
// the worker count flips between inline and spawned.
func TestLockstepStopThenTick(t *testing.T) {
	for _, n := range []int{3, tickShard - 1, tickShard, tickShard + 1} {
		g := graph.Ring(n)
		cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		cl.InitArbitrary(rand.New(rand.NewSource(int64(n))))
		cl.Tick()
		cl.Stop()
		cl.Tick()
		if cl.Ticks() != 2 {
			t.Fatalf("n=%d: %d ticks after Tick, Stop, Tick", n, cl.Ticks())
		}
		converge(t, cl, 100*n)
		checkSilentTree(t, cl)
		cl.Stop()
	}
}

// deafTransport is an async transport that carries nothing: endpoints
// swallow every frame and never notify — all Serve needs to run its
// goroutines, with no socket.
type deafTransport struct{}

func (deafTransport) Open(graph.NodeID) (Endpoint, error) { return deafEndpoint{}, nil }
func (deafTransport) Close() error                        { return nil }

type deafEndpoint struct{}

var deafNotify = make(chan struct{})

func (deafEndpoint) Send(graph.NodeID, []byte) error        { return nil }
func (deafEndpoint) Broadcast([]graph.NodeID, []byte) error { return nil }
func (deafEndpoint) Drain(into [][]byte) [][]byte           { return into }
func (deafEndpoint) Notify() <-chan struct{}                { return deafNotify }
func (deafEndpoint) Close() error                           { return nil }

// TestServeOutlivesItsGoroutines: when Serve returns, nothing it
// started is still running — in particular not the gateway-labeling
// poll, which refreshes the labeling under the cluster's locks. The
// all-goroutine stack dump taken right after the return must hold no
// frame inside Serve and no goroutine created by it. Register writes
// are simulated throughout, so every poll tick finds a refresh to do.
// No sleep: a poll on its own goroutine is caught within the first few
// rounds.
func TestServeOutlivesItsGoroutines(t *testing.T) {
	g := graph.Ring(3)
	stack := make([]byte, 1<<20)
	for round := 0; round < 50; round++ {
		cl, err := New(g, spanning.Algorithm{}, deafTransport{}, Config{Interval: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		NewGateway(cl)
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- cl.Serve(ctx) }()
		for i := 0; i < 200; i++ {
			cl.regWrites.Add(1)
			goruntime.Gosched()
		}
		cancel()
		<-served
		dump := stack[:goruntime.Stack(stack, true)]
		if i := bytes.Index(dump, []byte("(*Cluster).Serve")); i >= 0 {
			t.Fatalf("round %d: a goroutine is still inside Serve after it returned:\n%s", round, dump[i:min(i+400, len(dump))])
		}
	}
}
