package main

import (
	"math/rand"
	goruntime "runtime"
	"syscall"
	"time"
	"unsafe"

	"silentspan/internal/bits"
	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/trace"
	"silentspan/internal/wire"
)

// The layer table's direct measurements: each times a fixed number of
// calls into one layer, inside one span that also carries the count, so
// the table's ns-per-call is self time over calls. They run in the
// traced run only.

// mallocs returns the heap objects and bytes allocated so far.
func mallocs() (uint64, uint64) {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// loop times n calls of f inside a span and returns ns per call.
func (r *run) loop(name string, n int, f func(i int)) float64 {
	d := r.tr.time(name, func() counts {
		for i := 0; i < n; i++ {
			f(i)
		}
		return counts{"ops": float64(n)}
	})
	return float64(d.Nanoseconds()) / float64(n)
}

func (r *run) microBits(rng *rand.Rand) {
	const n = 200_000
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 20))
	}
	var b bits.Builder
	objs0, _ := mallocs()
	r.set("bits.gamma_append_ns", r.loop("bits.AppendGamma", n, func(i int) {
		if i%64 == 0 {
			b.Reset()
		}
		b.AppendGamma(vals[i%64])
	}))
	s := b.String()
	var rd *bits.Reader
	var bad int
	r.set("bits.gamma_read_ns", r.loop("bits.ReadGamma", n, func(i int) {
		if i%64 == 0 {
			rd = bits.NewReader(s)
		}
		if v, err := bits.ReadGamma(rd); err != nil || v != vals[i%64] {
			bad++
		}
	}))
	objs1, _ := mallocs()
	if bad > 0 {
		r.violate("bits: %d gamma values did not read back", bad)
	}
	r.set("bits.allocs_per_value", float64(objs1-objs0)/(2*n))
}

func (r *run) microWire() {
	const n = 100_000
	c := wire.Codec(wire.Spanning{})
	base := spanning.State{Root: 1, Parent: 4711, Dist: 9}
	moved := spanning.State{Root: 1, Parent: 4712, Dist: 10}
	anchor := wire.Frame{Kind: wire.KindDelta, Alg: c.Code(), Src: 5000, Seq: 9, BaseSeq: 9, State: base}
	delta := wire.Frame{Kind: wire.KindDelta, Alg: c.Code(), Src: 5000, Seq: 12, BaseSeq: 9, Base: base, State: moved}
	keep := wire.Frame{Kind: wire.KindDelta, Alg: c.Code(), Src: 5000, Seq: 12, BaseSeq: 9, Base: base, State: base}
	data := wire.Frame{Kind: wire.KindData, Src: 5000, Seq: 3, Data: wire.Packet{ID: 123456, Origin: 17, Dst: 9001, Hops: 5}}

	var bb bits.Builder
	var buf []byte
	var failed int
	encode := func(f wire.Frame) func(int) {
		return func(int) {
			var err error
			if buf, err = wire.Encode(f, c, &bb, buf[:0]); err != nil {
				failed++
			}
		}
	}
	r.set("wire.encode_anchor_ns", r.loop("wire.Encode.anchor", n, encode(anchor)))
	anchorBytes := append([]byte(nil), buf...)
	r.set("wire.encode_delta_ns", r.loop("wire.Encode.delta", n, encode(delta)))
	deltaBytes := append([]byte(nil), buf...)
	r.set("wire.encode_data_ns", r.loop("wire.Encode.data", n, encode(data)))
	r.set("wire.data_frame_bytes", float64(len(buf)))
	encode(keep)(0)
	r.set("wire.keepalive_frame_bytes", float64(len(buf)))
	r.set("wire.anchor_frame_bytes", float64(len(anchorBytes)))

	var scratch []uint64
	var f wire.Frame
	decode := func(frame []byte) func(int) {
		return func(int) {
			var err error
			if f, scratch, err = wire.DecodeBuf(c, frame, scratch); err != nil {
				failed++
			}
		}
	}
	objs0, bytes0 := mallocs()
	r.set("wire.decode_anchor_ns", r.loop("wire.DecodeBuf.anchor", n, decode(anchorBytes)))
	objs1, bytes1 := mallocs()
	r.set("wire.decode_allocs_per_frame", float64(objs1-objs0)/n)
	r.set("wire.decode_alloc_bytes_per_frame", float64(bytes1-bytes0)/n)
	if got, ok := f.State.(spanning.State); !ok || got != base {
		r.violate("wire: anchor decoded to %v, want %v", f.State, base)
	}
	r.set("wire.decode_delta_ns", r.loop("wire.DecodeBuf.delta", n, decode(deltaBytes)))
	var applied runtime.State
	r.set("wire.apply_delta_ns", r.loop("wire.ApplyDelta", n, func(int) {
		var err error
		if applied, err = wire.ApplyDelta(c, f, base); err != nil {
			failed++
		}
	}))
	if got, ok := applied.(spanning.State); !ok || got != moved {
		r.violate("wire: delta applied to %v, want %v", applied, moved)
	}
	if failed > 0 {
		r.violate("wire: %d codec calls failed", failed)
	}
}

// chaosFaults is the fault profile of the chaos workload.
var chaosFaults = cluster.FaultConfig{Loss: 0.02, Dup: 0.01, Corrupt: 0.005, Delay: 0.05, MaxDelayTicks: 3}

// microTransport opens endpoints directly, with no cluster on top, and
// times broadcast + step + drain on the in-process transport, bare and
// behind the fault injector, and send + receive on loopback UDP.
func (r *run) microTransport() {
	const nodes, degree, ticks = 64, 8, 200
	frame := make([]byte, 16)
	lockstep := func(name string, t cluster.Transport) (nsPerFrame, allocsPerFrame float64) {
		defer t.Close()
		eps := make([]cluster.Endpoint, nodes)
		dsts := make([][]graph.NodeID, nodes)
		for i := range eps {
			var err error
			if eps[i], err = t.Open(graph.NodeID(i + 1)); err != nil {
				r.violate("%s: open: %v", name, err)
				return 0, 0
			}
			for j := 1; j <= degree; j++ {
				dsts[i] = append(dsts[i], graph.NodeID((i+j)%nodes+1))
			}
		}
		step := t.(cluster.Stepper)
		var inbox [][]byte
		objs0, _ := mallocs()
		ns := r.loop(name, ticks, func(tick int) {
			for i, ep := range eps {
				ep.Broadcast(dsts[i], frame)
			}
			step.Step(uint64(tick + 1))
			for _, ep := range eps {
				inbox = ep.Drain(inbox[:0])
			}
		})
		objs1, _ := mallocs()
		return ns / (nodes * degree), float64(objs1-objs0) / (ticks * nodes * degree)
	}
	ns, allocs := lockstep("transport.chan", cluster.NewChanTransport())
	r.set("transport.chan_ns_per_frame", ns)
	r.set("transport.chan_allocs_per_frame", allocs)
	fc := chaosFaults
	fc.Seed = r.seed
	ft := cluster.NewFaultTransport(cluster.NewChanTransport(), fc)
	ns, _ = lockstep("transport.fault", ft)
	fs := ft.Stats()
	r.set("transport.fault_ns_per_frame", ns)
	r.set("transport.fault_lost", float64(fs.Lost))
	r.set("transport.fault_dup", float64(fs.Duplicated))
	r.set("transport.fault_corrupt", float64(fs.Corrupted))
	r.set("transport.fault_delayed", float64(fs.Delayed))

	// UDP: bursts from one socket to another, waiting for each burst.
	const bursts, burst = 100, 20
	udp := cluster.NewUDPTransport()
	defer udp.Close()
	a, errA := udp.Open(1)
	b, errB := udp.Open(2)
	if errA != nil || errB != nil {
		r.violate("transport.udp: open: %v %v", errA, errB)
		return
	}
	var inbox [][]byte
	got := 0
	d := r.tr.time("transport.udp", func() counts {
		for i := 0; i < bursts; i++ {
			for j := 0; j < burst; j++ {
				a.Send(2, frame)
			}
			want := got + burst
			for deadline := time.Now().Add(50 * time.Millisecond); got < want && time.Now().Before(deadline); {
				select {
				case <-b.Notify():
				case <-time.After(time.Millisecond):
				}
				inbox = b.Drain(inbox[:0])
				got += len(inbox)
			}
		}
		return counts{"ops": bursts * burst}
	})
	r.set("transport.udp_ns_per_frame", float64(d.Nanoseconds())/(bursts*burst))
	if got < bursts*burst*9/10 {
		r.violate("transport.udp: %d of %d loopback datagrams arrived", got, bursts*burst)
	}
}

// microRouting times the router's next-hop decision and the live
// labeler's reaction to one parent-pointer change, over a tree the
// simulator stabilised.
func (r *run) microRouting(rng *rand.Rand) {
	const n, calls = 2000, 100_000
	g := graph.RandomConnected(n, 8/float64(n), rng)
	net, err := runtime.NewNetwork(g, spanning.Algorithm{})
	if err != nil {
		r.violate("routing micro: %v", err)
		return
	}
	spanning.InitSelfRoot(net)
	if _, err := net.Run(runtime.Synchronous(), 1<<40); err != nil {
		r.violate("routing micro: %v", err)
		return
	}
	tree, err := spanning.ExtractTree(net)
	if err != nil {
		r.violate("routing micro: %v", err)
		return
	}
	router := routing.NewRouter(g, routing.Label(tree), routing.Options{})
	pairs := routing.UniformPairs(g.Nodes(), 1024, rng)
	stuck := 0
	r.set("routing.nexthop_ns", r.loop("routing.NextHop", calls, func(i int) {
		if _, _, ok := router.NextHop(pairs[i%1024].Src, pairs[i%1024].Dst); !ok {
			stuck++
		}
	}))
	if stuck > 0 {
		r.violate("routing micro: %d next-hop lookups found no hop over a complete labeling", stuck)
	}

	d := g.Dense()
	parents := make([]graph.NodeID, d.Slots())
	for i := range parents {
		parents[i] = tree.Parent(d.ID(i))
	}
	lb := routing.NewLiveLabeler(g, parents)
	// Flip leaves between their parent and another neighbour: the
	// smallest relabel, so the number is the labeler's fixed cost.
	type flip struct{ v, to, back graph.NodeID }
	var flips []flip
	for _, v := range g.Nodes() {
		if len(tree.Children(v)) > 0 || v == tree.Root() {
			continue
		}
		for _, u := range g.NeighborsShared(v) {
			if u != tree.Parent(v) {
				flips = append(flips, flip{v, u, tree.Parent(v)})
				break
			}
		}
	}
	if len(flips) == 0 {
		r.violate("routing micro: no leaf with a second neighbour")
		return
	}
	r.set("routing.live_setparent_ns", r.loop("routing.SetParent", 20_000, func(i int) {
		f := flips[(i/2)%len(flips)]
		if i%2 == 0 {
			lb.SetParent(f.v, f.to)
		} else {
			lb.SetParent(f.v, f.back)
		}
	}))
	if !lb.Labeling().Complete() {
		r.violate("routing micro: labeling incomplete after restoring every flipped pointer")
	}
}

const recorderCap = 1024

func (r *run) microTrace() {
	ring := trace.NewRing(recorderCap)
	r.set("trace.record_ns", r.loop("trace.Record", 500_000, func(i int) {
		ring.Record(trace.Event{Kind: trace.FrameTx, Node: 7, Seq: uint64(i), Tick: uint64(i)})
	}))
	r.set("trace.ring_bytes_per_node", float64(recorderCap*int(unsafe.Sizeof(trace.Event{}))))
}

// mergeFlight times the cross-node merge of an armed cluster's rings.
func (r *run) mergeFlight(cl *cluster.Cluster) {
	traces := cl.FlightTraces()
	events := 0
	for _, t := range traces {
		events += len(t.Events)
	}
	var merged *trace.Merged
	d := r.tr.time("trace.Merge", func() counts {
		merged = trace.Merge(traces)
		return counts{"events": float64(events)}
	})
	if len(merged.Events) != events {
		r.violate("trace.Merge returned %d of %d events", len(merged.Events), events)
	}
	r.add("trace.merge_ns_per_event", float64(d.Nanoseconds())/float64(max(events, 1)))
}

// variants fills the layer table's with/without pairs: the same
// reference convergence bare, without a gateway, and with the flight
// recorder armed, interleaved so the three share any drift.
func (r *run) variants() {
	const reps = 3 // a median needs three
	for rep := 0; rep < reps; rep++ {
		for _, v := range []lockstepCfg{
			{as: "variant_base_s"},
			{as: "variant_nogw_s", noGateway: true},
			{as: "variant_armed_s", recorderCap: recorderCap},
		} {
			v.n, v.quiet = 2000, 4
			r.tr.run++
			r.lockstepEpisode(v, r.seed)
		}
	}
	base := r.med("variant_base_s")
	r.set("gateway.refresh_share_pct", -pctOver(r.med("variant_nogw_s"), base))
	r.set("trace.armed_overhead_pct", pctOver(r.med("variant_armed_s"), base))
}

// layerTable runs the direct measurements and derives the span-based
// layer metrics. Traced runs only.
func (r *run) layerTable() {
	rng := rand.New(rand.NewSource(r.seed))
	r.microBits(rng)
	r.microWire()
	r.microTransport()
	r.microRouting(rng)
	r.microTrace()
	r.variants()

	tot := r.tr.totals()
	r.set("cluster.new_ns_per_node", selfPer(tot, "cluster.New", "nodes"))
	r.set("cluster.stop_ns_per_node", selfPer(tot, "cluster.Stop", "nodes"))
	r.set("graph.build_ns_per_edge", selfPer(tot, "graph.RandomConnected", "edges"))
	r.set("graph.dense_ns_per_edge", selfPer(tot, "graph.Dense", "edges"))
	r.set("routing.label_ns_per_node", selfPer(tot, "routing.Label", "nodes"))
	r.set("routing.drive_ns_per_pkt", selfPer(tot, "routing.Drive", "pkts"))
	r.set("runtime.newnetwork_ns_per_node", selfPer(tot, "runtime.NewNetwork", "nodes"))

	r.set("harness.trace_overhead_pct", pctOver(median(r.tracedPrimary), median(r.untracedPrimary)))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("harness.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	r.set("harness.gc_pause_ms", float64(m.PauseTotalNs)/1e6)
}
