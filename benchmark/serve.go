package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"syscall"
	"time"

	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/routing"
	"silentspan/internal/spanning"
)

// serveCfg sizes the free-running stage: a cluster served over real
// loopback UDP sockets with its admin servers up and the flight
// recorder disarmed.
type serveCfg struct {
	n       int
	victims int
	windows int     // idle/paced window pairs per episode
	rate    float64 // offered packets per second in a paced window
}

const (
	serveInterval = 5 * time.Millisecond
	serveTTL      = 66
	cohortSize    = 100
	cohortEvery   = 50 * time.Millisecond
	pollEvery     = 500 * time.Microsecond
	waitCap       = 15 * time.Second // no wait for an announcement outlasts this
	drainCap      = 10 * time.Second // nor any wait for launched packets this
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// served is one running cluster of the stage.
type served struct {
	g      *graph.Graph
	cl     *cluster.Cluster
	gw     *cluster.Gateway
	tr     *cluster.UDPTransport
	admin  *cluster.AdminServers
	cancel context.CancelFunc
	done   chan error
}

// stop ends Serve, waits for every actor, and closes all sockets.
func (s *served) stop() {
	if s.cancel != nil {
		s.cancel()
		<-s.done
	}
	if s.admin != nil {
		s.admin.Close()
	}
	s.tr.Close()
}

// serveSetup builds the cluster up to the point where Serve can start.
func (r *run) serveSetup(sc serveCfg, rng *rand.Rand) (*served, time.Duration, error) {
	s := &served{}
	var err error
	d := r.tr.time("graph.RandomConnected", func() counts {
		s.g = graph.RandomConnected(sc.n, 6/float64(sc.n), rng)
		return counts{"edges": float64(s.g.M())}
	})
	d += r.tr.time("cluster.New", func() counts {
		s.tr = cluster.NewUDPTransport()
		s.cl, err = cluster.New(s.g, spanning.Algorithm{}, s.tr,
			cluster.Config{Interval: serveInterval, StalenessTTL: serveTTL})
		return counts{"nodes": float64(sc.n)}
	})
	if err != nil {
		s.tr.Close()
		return nil, d, err
	}
	d += r.tr.call("cluster.NewGateway", func() { s.gw = cluster.NewGateway(s.cl) })
	d += r.tr.call("cluster.InitArbitrary", func() { s.cl.InitArbitrary(rng) })
	d += r.tr.call("cluster.ServeAdmin", func() { s.admin, err = s.cl.ServeAdmin() })
	if err != nil {
		s.stop()
		return nil, d, err
	}
	return s, d, nil
}

// awaitAnnounce polls until the in-band detector announces silence and
// returns how long the announcement was absent since start.
func awaitAnnounce(cl *cluster.Cluster, start time.Time) (time.Duration, error) {
	for !cl.QuietAnnounced() {
		if time.Since(start) > waitCap {
			return 0, fmt.Errorf("no silence announced within %s", waitCap)
		}
		time.Sleep(pollEvery)
	}
	return time.Since(start), nil
}

// drain polls until no launched packet is outstanding, calling each at
// every poll, and reports whether the backlog cleared.
func drain(gw *cluster.Gateway, limit time.Duration, each func()) bool {
	start := time.Now()
	for gw.Outstanding() > 0 {
		if time.Since(start) > limit {
			return false
		}
		time.Sleep(pollEvery)
		if each != nil {
			each()
		}
	}
	return true
}

// loadWindow is one paced open-loop window's accounting.
type loadWindow struct {
	pkts int
	cpu  time.Duration
	wall time.Duration
	on   bool // tracer state while it ran
}

// pacedLoad offers `rate` packets per second for `window`, one slice
// every tick interval, then lets the backlog drain, and returns the
// window's accounting. A slice that comes due more than two intervals
// late (the process was not scheduled) is skipped, not sent late: the
// catch-up burst after a stall would measure the host's hiccup, and
// overruns socket buffers. Skipped slices show in generator_late_ms.
func (r *run) pacedLoad(s *served, rate float64, window time.Duration, rng *rand.Rand, mustDeliver bool) loadWindow {
	per := max(int(rate*serveInterval.Seconds()), 1)
	steps := int(window / serveInterval)
	pairs := routing.UniformPairs(s.g.Nodes(), per*steps, rng)
	g0 := s.gw.Stats()
	cpu0, start := cpuTime(), time.Now()
	area, lastSample, late, launched := 0.0, start, time.Duration(0), 0
	sample := func() {
		now := time.Now()
		area += float64(s.gw.Outstanding()) * now.Sub(lastSample).Seconds()
		lastSample = now
	}
	for i := 0; i < steps; i++ {
		due := start.Add(time.Duration(i) * serveInterval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = max(late, time.Since(due))
		if !mustDeliver || time.Since(due) <= 2*serveInterval {
			sample()
			r.tr.time("gateway.Launch", func() counts {
				s.gw.Launch(pairs[i*per : (i+1)*per])
				return counts{"pkts": float64(per)}
			})
			launched += per
		}
	}
	offered := time.Since(start)
	backlog := s.gw.Outstanding()
	limit := drainCap
	if !mustDeliver {
		limit = time.Second // saturation loses packets for good; do not wait for them
	}
	cleared := drain(s.gw, limit, sample)
	w := loadWindow{pkts: launched, cpu: cpuTime() - cpu0, wall: time.Since(start), on: r.tr.on}
	resolved := s.gw.Stats().Delivered - g0.Delivered
	if mustDeliver {
		if !cleared {
			s.gw.Expire()
		}
		r.ops(launched, launched-resolved, fmt.Sprintf("packets paced at %.0f/s over UDP", rate))
		r.add("gateway.little_mean_ms", 1000*littleMean(area, resolved))
		r.add("gateway.backlog_end", float64(backlog))
		r.add("gateway.generator_late_ms", late.Seconds()*1000)
	} else {
		// Saturation: whatever is still outstanding is written off; the
		// rate that got through while load was offered is the metric.
		s.gw.Expire()
		r.add("gateway.saturated_pkts_per_s", float64(resolved)/offered.Seconds())
	}
	return w
}

// keepAlivePeriod is the gap between a quiet node's keep-alives once
// its back-off has run out: Config's default BackoffCap, in wall-clock.
const keepAlivePeriod = (serveTTL - 2) / 4 * serveInterval

// idleCPU watches the served cluster do nothing for about d and returns
// the process's CPU seconds per second, slice by slice. The actors
// start together and back off in step, so their keep-alives come in
// waves one keepAlivePeriod apart; a slice is one such period, which
// holds one wave wherever it starts. Slices, and not the whole window,
// so that a stray collection or a busy neighbour on the host lands in
// few of them and the median does not see it.
func idleCPU(d time.Duration) []float64 {
	var rates []float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		cpu0, t0 := cpuTime(), time.Now()
		time.Sleep(keepAlivePeriod)
		rates = append(rates, (cpuTime()-cpu0).Seconds()/time.Since(t0).Seconds())
	}
	return rates
}

// serveStage runs one round's free-running episode on a cluster of its
// own (subSeed(100+round): graph, registers, packets, victims):
// announce, probe cohorts, idle and paced windows in turn, crash and
// rejoin. last marks the run's final episode, which in a traced run
// also exercises the operations plane and saturates the sockets.
func (r *run) serveStage(sc serveCfg, budget time.Duration, round int, last bool) {
	tr := r.tr
	seed := r.subSeed(100 + round)
	rng := rand.New(rand.NewSource(seed))

	// Set-up, twice per episode so that its time is a median over six:
	// the first cluster is torn down again without serving.
	r.tr.run++
	spare, d, err := r.serveSetup(sc, rand.New(rand.NewSource(seed)))
	if !r.check(err, "serve set-up") {
		return
	}
	r.add("setup_serve_s", d.Seconds())
	spare.stop()
	s, d, err := r.serveSetup(sc, rng)
	if !r.check(err, "serve set-up") {
		return
	}
	r.add("setup_serve_s", d.Seconds())
	defer s.stop()
	victims, edges := pickVictims(s.g, sc.victims, rng)

	// Phase lengths: announcing and the crash/rejoin take what they
	// take (about 1.6 s together at this interval and TTL); the rest of
	// the budget is split between probes and the idle/paced windows.
	rest := max(budget-1600*time.Millisecond, time.Second)
	cohorts := max(int(rest*3/10/cohortEvery), 6)
	window := max(rest*7/10/time.Duration(2*sc.windows), 2*keepAlivePeriod)

	// (a) Start serving; time until silence is announced in-band.
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel, s.done = cancel, make(chan error, 1)
	start := time.Now()
	go func() { s.done <- s.cl.Serve(ctx) }()
	announce, err := awaitAnnounce(s.cl, start)
	quietTicks := s.cl.Metrics().Snapshot()["ss_cluster_quiet_ticks"]
	if err == nil {
		tr.call("cluster.Mirror", func() { err = gate(s.cl, s.gw) })
	}
	if !r.check(err, "serve: first announcement") {
		return
	}
	r.add("announce_s", announce.Seconds())
	r.add("cluster.detector_lag_ticks", quietTicks)
	r.add("cluster.last_write_ms", announce.Seconds()*1000-quietTicks*serveInterval.Seconds()*1000)

	// (b) Probe cohorts, about one every 50 ms, each timed from its due
	// instant; the delivered counter polled every half millisecond is
	// the cohort's latency curve.
	var lat []float64
	probeStart := time.Now()
	for c := 0; c < cohorts; c++ {
		// The actors' tickers started together and 50 ms is a whole number
		// of their intervals, so undithered cohorts would all meet the
		// same tick phase and the latency would depend on what that phase
		// happened to be. The golden-ratio step spreads the cohorts evenly
		// over one interval however many there are.
		_, phase := math.Modf(float64(c) * 0.6180339887)
		due := probeStart.Add(time.Duration(c)*cohortEvery + time.Duration(phase*float64(serveInterval)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		pairs := routing.UniformPairs(s.g.Nodes(), cohortSize, rng)
		g0 := s.gw.Stats().Delivered
		tr.time("gateway.Launch", func() counts {
			s.gw.Launch(pairs)
			return counts{"pkts": float64(len(pairs))}
		})
		var x []float64
		var cum []int
		cleared := drain(s.gw, drainCap, func() {
			tr.call("gateway.Stats", func() {
				x = append(x, time.Since(due).Seconds()*1000)
				cum = append(cum, s.gw.Stats().Delivered-g0)
			})
		})
		if !cleared {
			s.gw.Expire()
		}
		delivered := s.gw.Stats().Delivered - g0
		r.ops(cohortSize, cohortSize-delivered, "probe packets over UDP")
		if len(cum) == 0 || cum[len(cum)-1] < delivered {
			x, cum = append(x, time.Since(due).Seconds()*1000), append(cum, delivered)
		}
		lat = append(lat, curveSamples(0, x, cum)...)
	}
	slices.Sort(lat)
	r.add("episode_p50_ms", percentile(lat, 50)) // kept with the samples: how far one cluster's median lies from another's
	r.lat = append(r.lat, lat...)

	// (f, c) Idle and paced open-loop windows in turn: what a silent
	// deployment costs in CPU, and what a packet costs on top of it.
	var idle []float64 // CPU seconds per second
	var loads []loadWindow
	for w := 0; w < sc.windows; w++ {
		idle = append(idle, idleCPU(window)...)
		r.tr.run++
		r.tr.on = r.trace && w%2 == 0
		loads = append(loads, r.pacedLoad(s, sc.rate, window, rng, true))
		r.tr.on = r.trace
	}
	idleRate := median(idle)
	for _, rate := range idle {
		r.add("idle_cpu_ms_per_node_s", 1000*rate/float64(sc.n))
	}
	for _, w := range loads {
		if w.pkts == 0 {
			continue // every slice of the window was skipped
		}
		r.tr.on = w.on
		r.add("cpu_us_per_pkt", 1e6*(w.cpu.Seconds()-idleRate*w.wall.Seconds())/float64(w.pkts))
	}
	r.tr.on = r.trace

	// (e) Crash, wait half a second, rejoin; reannounce_s is the time
	// the announcement was absent between the crash and the first
	// announcement that covers the rejoined nodes. A node claims quiet
	// only QuietWindow (= StalenessTTL) ticks after its last membership
	// event, so an announcement standing or arriving sooner than that
	// after the rejoin is the survivors' own, about to be retracted.
	var churnErr error
	crashAt := time.Now()
	for _, v := range victims {
		d := tr.call("cluster.Crash", func() { churnErr = firstErr(churnErr, s.cl.Crash(v)) })
		r.add("cluster.crash_ms", d.Seconds()*1000)
	}
	warmLabeling(s.gw, s.g.MinID())
	unannounced := time.Duration(0)
	var rejoinedAt time.Time
	for lastPoll := crashAt; churnErr == nil; {
		time.Sleep(pollEvery)
		now := time.Now()
		announced := s.cl.QuietAnnounced()
		if !announced {
			unannounced += now.Sub(lastPoll)
		}
		lastPoll = now
		if rejoinedAt.IsZero() {
			if now.Sub(crashAt) >= 500*time.Millisecond {
				d := tr.call("cluster.Join", func() { churnErr = rejoin(s.cl, victims, edges) })
				r.add("cluster.join_ms", d.Seconds()*1000/float64(len(victims)))
				rejoinedAt = time.Now()
			}
			continue
		}
		if announced && now.Sub(rejoinedAt) > (serveTTL-2)*serveInterval {
			break
		}
		if now.Sub(crashAt) > waitCap {
			churnErr = fmt.Errorf("no silence re-announced within %s", waitCap)
		}
	}
	if churnErr == nil {
		tr.call("cluster.Mirror", func() { churnErr = gate(s.cl, s.gw) })
	}
	r.check(churnErr, "serve: crash/rejoin round")
	r.add("reannounce_s", unannounced.Seconds())

	if r.trace && last {
		r.opsPlane(s)
		// (d) Saturation, last: it overruns socket buffers, so heartbeats
		// die with the packets and the cluster may leave silence.
		r.pacedLoad(s, 8*sc.rate, time.Second, rng, false)
		ts := s.cl.Metrics().Snapshot()
		sent, recv := ts[`ss_transport_datagrams_sent_total{transport="udp"}`], ts[`ss_transport_datagrams_received_total{transport="udp"}`]
		if sent > 0 {
			r.set("transport.udp_lost_share", 100*max(sent-recv, 0)/sent)
		}
	}
}

// opsPlane times the operations plane on the idle cluster: rendering
// /metrics, one getself, and a full crawl through the in-process hub.
func (r *run) opsPlane(s *served) {
	var buf bytes.Buffer
	for i := 0; i < 20; i++ {
		buf.Reset()
		d := r.tr.call("ops.WritePrometheus", func() { s.cl.Metrics().WritePrometheus(&buf) })
		r.add("ops.metrics_render_us", float64(d.Microseconds()))
	}
	r.set("ops.metrics_render_bytes", float64(buf.Len()))
	hub := s.cl.AdminHub()
	for _, v := range s.g.Nodes() {
		d := r.tr.call("ops.Self", func() { hub.Self(v) })
		r.add("ops.getself_us", float64(d.Nanoseconds())/1000)
	}
	var rep *ops.CrawlReport
	var err error
	d := r.tr.call("ops.Crawl", func() { rep, err = ops.Crawl(hub, s.g.MinID()) })
	if err != nil || rep.Visited() != s.g.N() {
		r.violate("ops crawl visited %d of %d nodes: %v", rep.Visited(), s.g.N(), err)
	}
	r.set("ops.crawl_us_per_node", float64(d.Nanoseconds())/1000/float64(s.g.N()))
}
