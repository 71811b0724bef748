package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"time"

	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
)

// lockstepCfg sizes one lockstep episode: build a cluster over a random
// graph, converge it from adversarial registers, then serve `rounds`
// quiet rounds (an idle window and a routed batch) and `churns` churn
// rounds (corrupt registers, crash nodes, launch packets into the
// damage, rejoin the same identities, run until quiet again).
type lockstepCfg struct {
	n        int
	faults   *cluster.FaultConfig // nil = the clean in-process transport
	cfg      cluster.Config
	quiet    int // RunUntilQuiet window, in ticks
	rounds   int
	idle     int // ticks per idle window
	batch    int // packets per routed batch
	churns   int
	churnPkt int // packets launched into each churn round
	// shorts: after every full episode, this many more stop once
	// converged. Convergence is a small part of a full episode, and this
	// way it is sampled as often as the rounds.
	shorts int

	convergeOnly bool // set per episode by the stage

	// Variants for the layer table's with/without comparisons: run the
	// convergence only, without a gateway or with the flight recorder
	// armed, and record its wall-clock under `as`.
	noGateway   bool
	recorderCap int
	as          string
}

// pickVictims chooses up to k crash victims, never the root (the
// smallest identity, which the spanning substrate elects), such that
// the survivors stay connected, and remembers each victim's edges so
// the same identity can rejoin over the same links.
func pickVictims(g *graph.Graph, k int, rng *rand.Rand) ([]graph.NodeID, map[graph.NodeID][]graph.Edge) {
	nodes := g.Nodes()
	root := g.MinID()
	gone := make(map[graph.NodeID]bool)
	connectedWithout := func() bool {
		seen := map[graph.NodeID]bool{root: true}
		queue := []graph.NodeID{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.NeighborsShared(v) {
				if !gone[u] && !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		return len(seen) == len(nodes)-len(gone)
	}
	var victims []graph.NodeID
	edges := make(map[graph.NodeID][]graph.Edge)
	for _, i := range rng.Perm(len(nodes)) {
		if len(victims) == k {
			break
		}
		v := nodes[i]
		if v == root {
			continue
		}
		gone[v] = true
		if !connectedWithout() {
			delete(gone, v)
			continue
		}
		victims = append(victims, v)
		for _, u := range g.Neighbors(v) {
			w, _ := g.EdgeWeight(v, u)
			edges[v] = append(edges[v], graph.Edge{U: v, V: u, W: w})
		}
	}
	return victims, edges
}

// rejoin brings crashed victims back in crash order; an edge between
// two victims is carried by whichever of them rejoins second.
func rejoin(cl *cluster.Cluster, victims []graph.NodeID, edges map[graph.NodeID][]graph.Edge) error {
	for _, v := range victims {
		var live []graph.Edge
		for _, e := range edges[v] {
			if cl.Node(e.V) != nil {
				live = append(live, e)
			}
		}
		if err := cl.Join(v, live); err != nil {
			return fmt.Errorf("rejoin %d: %w", v, err)
		}
	}
	return nil
}

// warmLabeling makes the gateway's labeling build its identity index
// now, from the harness's goroutine. Once a crash has left the slot
// space unsorted, routing.Labeling.indexOf builds that map lazily on
// first use, and the first users are node actors calling
// Gateway.nextHop concurrently under a read lock: a concurrent map
// write that kills the process (seen on 4 of 20 seeds before this
// call was added). The fix belongs in internal/routing; until it lands,
// the harness asks for one coordinate after every membership change,
// while no packet is in flight and so no actor is routing.
func warmLabeling(gw *cluster.Gateway, v graph.NodeID) { gw.Labeling().Coords(v) }

// gate is the correctness check after every episode and round: the
// cluster's registers, mirrored into the simulator, must be silent,
// stay silent on re-examination, and spell a tree spanning the live
// graph; with a gateway, every launched packet must be accounted for.
func gate(cl *cluster.Cluster, gw *cluster.Gateway) error {
	net, err := cl.Mirror()
	if err != nil {
		return err
	}
	if !net.Silent() {
		return fmt.Errorf("mirror not silent")
	}
	if err := runtime.CheckSilentStable(net); err != nil {
		return err
	}
	if _, err := spanning.ExtractTree(net); err != nil {
		return err
	}
	if gw != nil {
		if s := gw.Stats(); s.Delivered+s.Dropped+s.Lost+gw.Outstanding() != s.Launched {
			return fmt.Errorf("gateway ledger: delivered %d + dropped %d + lost %d + outstanding %d != launched %d",
				s.Delivered, s.Dropped, s.Lost, gw.Outstanding(), s.Launched)
		}
	}
	return nil
}

// lockstepEpisode runs one episode and returns its fingerprint: every
// exact count it produced, in order. Two episodes of one seed must
// return equal fingerprints, or the lockstep driver lost determinism.
func (r *run) lockstepEpisode(lc lockstepCfg, seed int64) []int64 {
	tr := r.tr
	var fp []int64
	rng := rand.New(rand.NewSource(seed))

	// Set-up: graph, cluster, gateway, adversarial registers.
	var g *graph.Graph
	var cl *cluster.Cluster
	var gw *cluster.Gateway
	var ft *cluster.FaultTransport
	var err error
	setup := tr.time("graph.RandomConnected", func() counts {
		g = graph.RandomConnected(lc.n, 8/float64(lc.n), rng)
		return counts{"edges": float64(g.M())}
	})
	setup += tr.time("graph.Dense", func() counts {
		g.Dense()
		return counts{"edges": float64(g.M())}
	})
	setup += tr.time("cluster.New", func() counts {
		var t cluster.Transport = cluster.NewChanTransport()
		if lc.faults != nil {
			fc := *lc.faults
			fc.Seed = seed
			ft = cluster.NewFaultTransport(t, fc)
			t = ft
		}
		cl, err = cluster.New(g, spanning.Algorithm{}, t, lc.cfg)
		return counts{"nodes": float64(lc.n)}
	})
	if err != nil {
		r.check(err, "cluster.New")
		return nil
	}
	defer tr.time("cluster.Stop", func() counts {
		cl.Stop()
		return counts{"nodes": float64(lc.n)}
	})
	if !lc.noGateway {
		setup += tr.call("cluster.NewGateway", func() { gw = cluster.NewGateway(cl) })
	}
	if lc.recorderCap > 0 {
		cl.EnableFlightRecorder(lc.recorderCap)
	}
	setup += tr.call("cluster.InitArbitrary", func() { cl.InitArbitrary(rng) })
	if lc.as == "" {
		r.add("setup_lockstep_s", setup.Seconds())
	}

	// Convergence from the adversarial start. Every episode starts from
	// a collected heap, so that one episode's garbage is not collected
	// on the next one's clock.
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	if r.trace {
		goruntime.ReadMemStats(&m0)
	}
	var ticks int
	var quiet bool
	var st cluster.Stats
	conv := tr.time("cluster.RunUntilQuiet", func() counts {
		ticks, quiet = cl.RunUntilQuiet(32*lc.n, lc.quiet)
		st = cl.Stats()
		return counts{"ticks": float64(ticks), "frames": float64(st.FramesSent), "nodes": float64(lc.n)}
	})
	if r.trace {
		goruntime.ReadMemStats(&m1)
	}
	if lc.as != "" {
		if !quiet {
			r.violate("%s variant: no quiet within %d ticks", lc.as, 32*lc.n)
		}
		r.add(lc.as, conv.Seconds())
		if lc.recorderCap > 0 {
			r.mergeFlight(cl)
		}
		return nil
	}
	var gateErr error
	tr.call("cluster.Mirror", func() { gateErr = gate(cl, gw) })
	if !quiet {
		gateErr = fmt.Errorf("no quiet within %d ticks", 32*lc.n)
	}
	r.check(gateErr, "convergence episode")
	r.add("converge_s", conv.Seconds())
	r.addExact("converge_ticks", float64(ticks))
	frames := float64(st.FramesSent)
	r.add("cluster.busy_tick_ns_per_frame", float64(conv.Nanoseconds())/frames)
	r.addExact("cluster.frames_per_episode", frames)
	r.addExact("cluster.bytes_per_node", float64(st.BytesSent)/float64(lc.n))
	r.addExact("cluster.register_writes", float64(st.RegisterWrites))
	r.addExact("cluster.max_register_bits", float64(cl.MaxRegisterBits()))
	if r.trace {
		r.add("cluster.allocs_per_frame", float64(m1.Mallocs-m0.Mallocs)/frames)
		r.add("cluster.alloc_bytes_per_frame", float64(m1.TotalAlloc-m0.TotalAlloc)/frames)
	}
	fp = append(fp, int64(ticks), int64(st.FramesSent), int64(st.BytesSent), int64(st.RegisterWrites))
	if lc.convergeOnly {
		return fp
	}

	// Let the in-band detector announce before measuring the idle
	// cluster: its reports climbing the tree one QuietWindow after the
	// last write, and the announcement descending it again, are two
	// one-time bursts of frames, not the steady price of silence.
	lag := 0
	for limit := 8*max(lc.cfg.StalenessTTL, 12) + 64; !cl.QuietAnnounced() && lag < limit; lag++ {
		tr.call("cluster.Tick", cl.Tick)
	}
	if !cl.QuietAnnounced() {
		r.violate("lockstep: silence not announced within %d ticks of quiet", lag)
	}
	for i := 0; i < max(lc.idle, 16); i++ {
		tr.call("cluster.Tick", cl.Tick)
	}
	fp = append(fp, int64(lag))

	nodes := g.Nodes()
	// Quiet rounds: the price of silence, then a routed batch launched
	// at one instant, whose per-tick delivered counts are its exact
	// latency distribution.
	for round := 0; round < lc.rounds; round++ {
		// One sample per window, not per tick: backed-off keep-alives go
		// out every few ticks, in step, so single ticks are heavy or light
		// and their median would sit wherever the two kinds happen to
		// balance. A window holds a whole number of keep-alive periods.
		before := cl.Stats()
		var window time.Duration
		for i := 0; i < lc.idle; i++ {
			window += tr.call("cluster.Tick", cl.Tick)
		}
		r.add("idle_tick_ms", window.Seconds()*1000/float64(lc.idle))
		r.add("cluster.idle_tick_ns_per_node", float64(window.Nanoseconds())/float64(lc.idle)/float64(lc.n))
		idleBytes := cl.Stats().BytesSent - before.BytesSent
		r.addExact("idle_bytes_per_node_tick", float64(idleBytes)/float64(lc.idle)/float64(lc.n))
		fp = append(fp, int64(idleBytes))

		// The batch rides a clean data path: on the faulty transport the
		// injected faults pause for it, as the certification campaigns do
		// when they measure the recovered service.
		if ft != nil {
			ft.SetEnabled(false)
		}
		pairs := routing.UniformPairs(nodes, lc.batch, rng)
		g0 := gw.Stats()
		route := tr.time("gateway.Launch", func() counts {
			gw.Launch(pairs)
			return counts{"pkts": float64(len(pairs))}
		})
		r.add("gateway.launch_ns_per_pkt", float64(route.Nanoseconds())/float64(len(pairs)))
		var x []float64
		var cum []int
		for t := 1; t <= 8*lc.n && gw.Outstanding() > 0; t++ {
			route += tr.call("cluster.Tick", cl.Tick)
			x = append(x, float64(t))
			cum = append(cum, gw.Stats().Delivered-g0.Delivered)
			fp = append(fp, int64(cum[len(cum)-1]))
		}
		if ft != nil {
			ft.SetEnabled(true)
		}
		g1 := gw.Stats()
		delivered := g1.Delivered - g0.Delivered
		r.ops(len(pairs), len(pairs)-delivered, "packets routed over the quiet cluster")
		hops := float64(g1.HopsTotal - g0.HopsTotal)
		r.add("gateway.route_pkts_per_s", float64(len(pairs))/route.Seconds())
		r.add("gateway.hop_ns", float64(route.Nanoseconds())/hops)
		r.addExact("gateway.mean_hops", hops/float64(delivered))
		samples := curveSamples(0, x, cum)
		slices.Sort(samples)
		r.addExact("deliver_p50_ticks", percentile(samples, 50))
		r.addExact("deliver_p99_ticks", percentile(samples, 99))
	}

	// Churn rounds. Packets launched into the damage are not operations
	// that must succeed (their delivered share is a layer metric), but
	// the ledger must balance and the cluster must return to a silent
	// spanning tree over the full membership.
	victims, edges := pickVictims(g, max(lc.n/200, 1), rng)
	recoverTicks := 0
	for round := 0; round < lc.churns; round++ {
		survivors := slices.DeleteFunc(slices.Clone(nodes), func(v graph.NodeID) bool { return slices.Contains(victims, v) })
		pairs := routing.UniformPairs(survivors, lc.churnPkt, rng)
		g0 := gw.Stats()
		var rticks int
		var rquiet bool
		var roundErr error
		start := time.Now()
		tr.call("cluster.Corrupt", func() { cl.Corrupt(max(lc.n/50, 1), rng) })
		for _, v := range victims {
			d := tr.call("cluster.Crash", func() { roundErr = firstErr(roundErr, cl.Crash(v)) })
			r.add("cluster.crash_ms", d.Seconds()*1000)
		}
		warmLabeling(gw, g.MinID())
		tr.time("gateway.Launch", func() counts {
			gw.Launch(pairs)
			return counts{"pkts": float64(len(pairs))}
		})
		for i := 0; i < 6; i++ {
			tr.call("cluster.Tick", cl.Tick)
		}
		d := tr.call("cluster.Join", func() { roundErr = firstErr(roundErr, rejoin(cl, victims, edges)) })
		r.add("cluster.join_ms", d.Seconds()*1000/float64(len(victims)))
		tr.time("cluster.RunUntilQuiet", func() counts {
			rticks, rquiet = cl.RunUntilQuiet(32*lc.n, lc.quiet)
			return counts{"ticks": float64(rticks)}
		})
		took := time.Since(start)
		for i := 0; i < 32; i++ {
			tr.call("cluster.Tick", cl.Tick)
		}
		gw.Expire()
		if roundErr == nil && !rquiet {
			roundErr = fmt.Errorf("no quiet within %d ticks", 32*lc.n)
		}
		if roundErr == nil {
			tr.call("cluster.Mirror", func() { roundErr = gate(cl, gw) })
		}
		r.check(roundErr, "churn round")
		g1 := gw.Stats()
		r.add("recover_s", took.Seconds())
		recoverTicks += rticks
		r.addExact("gateway.churn_delivered_share", 100*float64(g1.Delivered-g0.Delivered)/float64(len(pairs)))
		fp = append(fp, int64(rticks), int64(g1.Delivered), int64(g1.Dropped), int64(g1.Lost))
	}

	// The episode's mean, not each round's count: rounds differ by a tick
	// or two, and a mean of exact counts is as exact and moves less from
	// seed to seed than their median.
	r.addExact("recover_ticks", float64(recoverTicks)/float64(max(lc.churns, 1)))

	end := cl.Stats()
	sent := float64(end.FramesSent)
	r.addExact("wire.reject_share", 100*float64(end.RxRejected)/float64(max(end.FramesRecv, 1)))
	r.addExact("cluster.anchor_share", 100*float64(end.AnchorsSent)/float64(max(end.AnchorsSent+end.DeltasSent, 1)))
	r.addExact("cluster.resync_per_kframe", 1000*float64(end.ResyncsSent)/sent)
	r.addExact("cluster.delta_miss_per_kframe", 1000*float64(end.DeltaMisses)/sent)
	r.addExact("cluster.staleness_expiries", float64(end.StalenessExpiries))
	fp = append(fp, int64(end.FramesSent), int64(end.BytesSent), int64(end.RegisterWrites),
		int64(end.RxRejected), int64(end.ResyncsSent), int64(end.DeltaMisses), int64(end.StalenessExpiries))
	if ft != nil {
		fs := ft.Stats()
		fp = append(fp, int64(fs.Sent), int64(fs.Lost), int64(fs.Duplicated), int64(fs.Corrupted), int64(fs.Delayed))
	}
	return fp
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// fits reports whether one more repetition, expected to take as long as
// the last one did, should start: it should if at least half of it lies
// before the deadline, so a stage overruns its budget as often and as
// far as it falls short of it.
func fits(last time.Duration, deadline time.Time) bool {
	return time.Now().Add(last / 2).Before(deadline)
}

// lockstepStage runs one round's block of episodes, all on the round's
// own input (subSeed(round): graph, registers, packets, victims). The
// block runs cycles of one full episode and lc.shorts converge-only
// ones until its budget is spent, at least one; the very first episode
// of the run is an extra warm-up. The first full episode's exact counts
// are the ones recorded, and every later episode of the block must
// reproduce them.
func (r *run) lockstepStage(lc lockstepCfg, budget time.Duration, round int) {
	defer r.endStage()
	deadline := time.Now().Add(budget)
	seed := r.subSeed(round)
	if round == 0 {
		warm := lc
		warm.convergeOnly = true
		r.startRep(true, false, 0)
		if r.lockstepEpisode(warm, seed) == nil {
			return
		}
	}
	var ref []int64 // the block's first fingerprint; a converge-only episode's is a prefix of it
	for cycle := 0; ; cycle++ {
		start := time.Now()
		for i := 0; i <= lc.shorts; i++ {
			ep := lc
			ep.convergeOnly = i > 0
			if ep.convergeOnly {
				r.startRep(false, false, r.lockShorts)
				r.lockShorts++
			} else {
				r.startRep(false, cycle == 0, r.lockFulls)
				r.lockFulls++
			}
			fp := r.lockstepEpisode(ep, seed)
			if fp == nil {
				return
			}
			if ref == nil {
				ref = fp
			}
			n := min(len(ref), len(fp))
			if !slices.Equal(ref[:n], fp[:n]) || (!ep.convergeOnly && len(fp) != len(ref)) {
				r.attempted++
				r.failed++
				r.violate("lockstep determinism lost: round %d cycle %d episode %d produced %d counts %v where the first produced %d, %v",
					round, cycle, i, len(fp), diff(fp[:n], ref[:n]), len(ref), diff(ref[:n], fp[:n]))
			}
		}
		if !fits(time.Since(start), deadline) {
			return
		}
	}
}

// diff lists the entries of a that differ from b, as index:value.
func diff(a, b []int64) []string {
	var out []string
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			out = append(out, fmt.Sprintf("%d:%d", i, a[i]))
		}
		if len(out) == 8 {
			break
		}
	}
	return out
}
