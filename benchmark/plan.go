package main

import (
	goruntime "runtime"
	"slices"
	"time"

	"silentspan/internal/cluster"
)

// plan is one workload: how its three stages are sized and how the
// run's seconds are shared between them. Every workload runs all three
// stages, so every end-to-end metric is measured on every run; the
// workload decides which stage gets the large input, and the other two
// run at reference size.
type plan struct {
	primary string // the timing harness.trace_overhead_pct is taken on
	lock    lockstepCfg
	serve   serveCfg
	sim     simCfg
	// shares of the run's seconds: lockstep, serve, sim.
	shares [3]float64
}

var (
	refLock  = lockstepCfg{n: 1000, quiet: 4, rounds: 2, idle: 16, batch: 2000, churns: 2, churnPkt: 200, shorts: 2}
	refServe = serveCfg{n: 64, victims: 4, windows: 2, rate: 12000}
	refSim   = simCfg{n: 4000, starts: 4, packets: 4000, central: 1000, treeN: 20, trees: 12}

	lockFocus  = [3]float64{0.42, 0.38, 0.20}
	serveFocus = [3]float64{0.27, 0.53, 0.20}
	simFocus   = [3]float64{0.27, 0.38, 0.35}
)

var plans = map[string]plan{
	wConverge: {
		primary: "converge_s",
		lock:    lockstepCfg{n: 2000, quiet: 4, rounds: 2, idle: 8, batch: 1000, churns: 2, churnPkt: 200, shorts: 2},
		serve:   refServe, sim: refSim, shares: lockFocus,
	},
	wIdleRoute: {
		primary: "idle_tick_ms",
		// StalenessTTL 128 backs keep-alives off to one per 31 ticks; an
		// idle window of two such periods sees the same number of
		// keep-alive waves wherever it starts.
		lock: lockstepCfg{n: 2000, cfg: cluster.Config{StalenessTTL: 128}, quiet: 4,
			rounds: 4, idle: 62, batch: 4000, churns: 2, churnPkt: 200, shorts: 1},
		serve: refServe, sim: refSim, shares: lockFocus,
	},
	wChaos: {
		primary: "recover_s",
		lock: lockstepCfg{n: 1500, faults: &chaosFaults, cfg: cluster.Config{StalenessTTL: 48, BackoffCap: 4}, quiet: 12,
			rounds: 1, idle: 16, batch: 2000, churns: 3, churnPkt: 1000, shorts: 1},
		serve: refServe, sim: refSim, shares: lockFocus,
	},
	wServe: {
		primary: "cpu_us_per_pkt",
		lock:    refLock,
		serve:   serveCfg{n: 128, victims: 8, windows: 3, rate: 16000},
		sim:     refSim, shares: serveFocus,
	},
	wSim: {
		primary: "stabilize_s",
		lock:    refLock, serve: refServe,
		sim:    simCfg{n: 20_000, starts: 3, packets: 30_000, central: 1000, treeN: 24, trees: 12},
		shares: simFocus,
	},
}

// rounds is how many times a run goes through its three stages. The
// box's speed drifts by a tenth and more over several seconds (other
// tenants, clock changes), so a stage measured in one stretch reads
// whatever that stretch was like; cut into rounds, every metric is
// sampled at three places in the run and its median sees the drift
// from all sides. Each round has inputs of its own, so a metric is also
// a median over several graphs and not the luck of one.
const rounds = 3

// runPlan runs the rounds, the layer table when traced, and derives the
// metrics that are sums or choices of what the stages recorded.
func (r *run) runPlan(p plan) {
	budget := func(share float64) time.Duration {
		return time.Duration(share * r.seconds / rounds * float64(time.Second))
	}
	for round := 0; round < rounds; round++ {
		// Every stage starts from a collected heap, so one stage's garbage
		// is not collected on the next stage's clock; how long each took is
		// kept with the samples, for whoever re-balances the shares.
		for _, stage := range []struct {
			name string
			run  func()
		}{
			{"stage_lockstep_s", func() { r.lockstepStage(p.lock, budget(p.shares[0]), round) }},
			{"stage_sim_s", func() { r.simStage(p.sim, budget(p.shares[2]), round) }},
			{"stage_serve_s", func() { r.serveStage(p.serve, budget(p.shares[1]), round, round == rounds-1) }},
		} {
			goruntime.GC()
			start := time.Now()
			stage.run()
			r.add(stage.name, time.Since(start).Seconds())
		}
	}
	if r.trace {
		goruntime.GC()
		r.layerTable()
	}

	slices.Sort(r.lat)
	r.set("deliver_p50_ms", percentile(r.lat, 50))
	r.set("gateway.deliver_p99_ms", percentile(r.lat, 99))
	r.set("core.rejected_starts", float64(r.rejectedStarts))
	// Set-up is one of each stage's set-ups: the medians add up.
	r.set("setup_s", r.med("setup_lockstep_s")+r.med("setup_serve_s")+r.med("setup_sim_s"))
	// The exact counts behind end-to-end metrics have one value per input
	// and a run has few inputs: their mean moves by thirds where their
	// median would jump between neighbouring whole numbers.
	for _, name := range []string{"converge_ticks", "recover_ticks", "idle_bytes_per_node_tick", "deliver_p50_ticks", "deliver_p99_ticks"} {
		if xs := r.samples[name]; len(xs) > 0 {
			r.set(name, mean(xs))
		}
	}
	// ticks_to_quiet is the convergence from the adversarial start,
	// except on the chaos workload, where it is the per-round recovery.
	r.samples["ticks_to_quiet"] = r.samples["converge_ticks"]
	if r.workload == wChaos {
		r.samples["ticks_to_quiet"] = r.samples["recover_ticks"]
	}
	// route_pkts_per_s is the gateway's rate over the cluster, except on
	// the simulator workload, where it is the router's own.
	r.samples["route_pkts_per_s"] = r.samples["gateway.route_pkts_per_s"]
	if r.workload == wSim {
		r.samples["route_pkts_per_s"] = r.samples["routing.drive_pkts_per_s"]
	}
}
