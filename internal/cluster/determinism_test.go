package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"silentspan/internal/bfs"
	"silentspan/internal/graph"
	"silentspan/internal/routing"
)

// flightHash folds every flight-recorder ring (each event minus its
// wall-clock word) and the final registers into one hash: the
// execution witness — register writes, frames sent, accepted and
// rejected, detector transitions, and every packet hop, per node, in
// ring order.
func flightHash(cl *Cluster) uint64 {
	h := fnv.New64a()
	for _, tr := range cl.FlightTraces() {
		fmt.Fprintf(h, "%d/%d:", tr.Node, tr.Dropped)
		for _, ev := range tr.Events {
			// Every field but Wall, packed by hand: fmt's reflection made
			// this loop the bulk of the test under -race.
			var b [50]byte
			b[0], b[1] = byte(ev.Kind), byte(ev.Class)
			for i, w := range [...]uint64{uint64(ev.Node), uint64(ev.Peer), ev.Seq, ev.Arg, ev.Epoch, ev.Tick} {
				binary.LittleEndian.PutUint64(b[2+8*i:], w)
			}
			h.Write(b[:])
		}
	}
	for _, s := range cl.Snapshot(nil) {
		fmt.Fprintf(h, "%s;", s)
	}
	return h.Sum64()
}

// traceRun executes one fully seeded n-node cluster run — adversarial
// init, chaotic transport when faulty, packet cohort — and returns the
// execution-trace hash plus the headline counters. Mirrors the PR 3
// scheduler-determinism test at the cluster layer: the node rounds
// genuinely run concurrently (once n exceeds one Tick shard), and the
// BSP barriers plus barrier-time fault decisions must make the whole
// execution a function of the seed alone.
func traceRun(t *testing.T, seed int64, n int, faulty bool) (uint64, Stats, GatewayStats, FaultStats, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(n, min(0.3, 8/float64(n)), rng)
	var tr Transport = NewChanTransport()
	var ft *FaultTransport
	if faulty {
		ft = NewFaultTransport(tr, FaultConfig{
			Seed: seed + 1, Loss: 0.1, Dup: 0.1, Corrupt: 0.05, Delay: 0.2, MaxDelayTicks: 4})
		tr = ft
	}
	cl, err := New(g, bfs.Algorithm{}, tr, Config{StalenessTTL: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	// Rings sized so the witness holds ~128k events whatever n: at the
	// n=14 of TestSeededDeterminism that is more than the default ring.
	cl.EnableFlightRecorder((1 << 17) / n)
	gw := NewGateway(cl)
	cl.InitArbitrary(rand.New(rand.NewSource(seed + 2)))
	for i := 0; i < 5; i++ {
		cl.Tick()
	}
	gw.Launch(routing.UniformPairs(g.Nodes(), 32, rand.New(rand.NewSource(seed+3))))
	ticks, ok := cl.RunUntilQuiet(20000, 10)
	if !ok {
		t.Fatalf("seed %d: no quiet", seed)
	}
	for i := 0; i < 64; i++ {
		cl.Tick()
	}
	gw.Expire()
	var faults FaultStats
	if ft != nil {
		faults = ft.Stats()
	}
	return flightHash(cl), cl.Stats(), gw.Stats(), faults, ticks
}

// TestSeededDeterminism: same seed ⇒ identical cluster execution trace
// on the channel transport — every node's recorded event history,
// frame counters, fault schedule, packet outcomes, convergence latency,
// everything.
func TestSeededDeterminism(t *testing.T) {
	h1, s1, g1, f1, t1 := traceRun(t, 42, 14, true)
	h2, s2, g2, f2, t2 := traceRun(t, 42, 14, true)
	if h1 != h2 {
		t.Errorf("trace hash diverged: %#x vs %#x", h1, h2)
	}
	if s1 != s2 {
		t.Errorf("cluster stats diverged: %+v vs %+v", s1, s2)
	}
	if g1 != g2 {
		t.Errorf("gateway stats diverged: %+v vs %+v", g1, g2)
	}
	if f1 != f2 {
		t.Errorf("fault stats diverged: %+v vs %+v", f1, f2)
	}
	if t1 != t2 {
		t.Errorf("convergence latency diverged: %d vs %d", t1, t2)
	}

	// A different seed must explore a different execution (sanity check
	// that the trace hash actually covers the run).
	h3, _, _, _, _ := traceRun(t, 43, 14, true)
	if h3 == h1 {
		t.Errorf("seeds 42 and 43 produced the identical trace %#x", h1)
	}
}
