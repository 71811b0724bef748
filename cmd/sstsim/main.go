// Command sstsim runs one self-stabilization simulation: pick an
// algorithm, a graph family, and a scheduler; start from an arbitrary
// (adversarial) configuration; watch the system converge to a silent
// legal configuration; optionally inject faults and watch it recover.
//
// The -route mode serves traffic over the stabilized tree instead:
// label the tree with routing coordinates, drive a packet workload,
// and report delivery, hops, and stretch. With -faults it runs the
// fault-interplay experiment — corrupt registers under live traffic
// and measure loops/drops during reconvergence — once per substrate
// (BFS, MST, MDST).
//
// Usage examples:
//
//	sstsim -alg bfs -graph random:40:0.1 -sched adversarial -faults 5
//	sstsim -alg mst -graph geometric:24:0.35
//	sstsim -alg mdst -graph lollipop:6:8 -seed 7
//	sstsim -route -graph random:10000:0.002 -packets 100000
//	sstsim -route -workload hotspot -graph geometric:400:0.08
//	sstsim -route -faults 4 -graph random:32:0.15
//
// The -cluster mode deploys the algorithm as a message-passing cluster
// instead of the simulator: every node's round run between two barriers
// per tick, exchanging heartbeat frames over a faulty in-process
// transport, with a packet batch served end-to-end as data frames once
// the tree is quiet:
//
//	sstsim -cluster -alg bfs -graph random:24:0.2 -loss 0.1
//
// The -serve mode runs the cluster free-running over real loopback UDP
// sockets and binds a per-node admin API (getself / getpeers / gettree
// / getstats / getquiet, plus Prometheus /metrics) — the
// operations-plane demo. Once the in-band termination detector's
// convergecast reaches the root, the cluster announces its own silence
// (an "announce:" line, the ss_cluster_detected_quiet gauge, and every
// node's /getquiet).
// Crawl it with sscrawl, or curl any node's socket. Add -trace to arm
// the per-node flight recorder (collect the causal timeline with
// sstrace) and -pprof to expose net/http/pprof on its own socket:
//
//	sstsim -serve -alg spanning -graph random:64:0.1 \
//	    -admin-dir /tmp/admin.txt -tree-out /tmp/tree.txt \
//	    -trace -pprof 127.0.0.1:6060
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"silentspan/internal/cert"
	"silentspan/internal/cluster"
	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/mst"
	"silentspan/internal/ops"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// The 23 flags. They are package-level so the per-mode table below can
// be checked against them (main_test.go).
var (
	algName     = flag.String("alg", "bfs", "algorithm: spanning | switching | bfs | mst | mdst")
	graphSpec   = flag.String("graph", "random:30:0.15", "graph: ring:n | path:n | grid:r:c | complete:n | star:n | lollipop:k:t | random:n:p | geometric:n:r")
	schedName   = flag.String("sched", "central", "scheduler: central | synchronous | round-robin | adversarial-unfair | greedy-stretch | random-central | random-subset (adversarial, roundrobin, random: older spellings)")
	seed        = flag.Int64("seed", 1, "random seed")
	faults      = flag.Int("faults", 0, "registers to corrupt after stabilization (rule-based algorithms)")
	maxMoves    = flag.Int("maxmoves", 10_000_000, "move budget")
	route       = flag.Bool("route", false, "serve traffic over the stabilized tree instead of just constructing it")
	packets     = flag.Int("packets", 100_000, "route mode: packets to drive")
	workload    = flag.String("workload", "uniform", "route mode: uniform | hotspot | allpairs")
	churn       = flag.Int("churn", 0, "apply this many live-topology churn ops (joins/leaves/link flaps/partitions) after stabilization, with traffic flying")
	clusterMode = flag.Bool("cluster", false, "run the algorithm as a lockstep message-passing cluster: nodes exchanging heartbeat frames over a faulty in-process transport")
	loss        = flag.Float64("loss", 0.1, "cluster mode: heartbeat/data frame loss probability (dup/corrupt/delay ride along at fixed rates)")
	serve       = flag.Bool("serve", false, "deploy the cluster free-running over loopback UDP with a per-node admin API, until SIGINT/SIGTERM (or -serve-for)")
	adminDir    = flag.String("admin-dir", "", "serve mode: write the admin directory (one 'id addr' line per node) to this file at startup")
	treeOut     = flag.String("tree-out", "", "serve mode: write the stabilized parent map (one 'child parent' line per node, 0 = root) to this file once the cluster is quiet")
	serveFor    = flag.Duration("serve-for", 0, "serve mode: exit after this duration (0 = run until signalled)")
	interval    = flag.Duration("interval", 5*time.Millisecond, "serve mode: per-node tick period; shorter converges faster but saturates small machines (staleness flapping)")
	backoffCap  = flag.Int("backoff-cap", 0, "serve mode: max keep-alive gap in ticks while quiet (0 = derive from the staleness TTL, ≈64; clamped so live peers never expire)")
	churnKill   = flag.Int("churn-kill", 0, "serve mode: once quiet, crash this many non-root nodes (connectivity-preserving), then rejoin the same ids after -churn-rejoin-after; tree-out and admin-dir are republished when quiet again")
	churnRejoin = flag.Duration("churn-rejoin-after", 2*time.Second, "serve mode: how long the killed nodes stay dead before rejoining")
	traceOn     = flag.Bool("trace", false, "serve mode: arm the per-node flight recorder (collect with sstrace, or curl any node's /gettrace)")
	traceCap    = flag.Int("trace-cap", 8192, "serve mode: flight-recorder ring capacity in events per node")
	pprofAddr   = flag.String("pprof", "", "serve mode: also serve net/http/pprof on this address (host:port)")
)

func main() {
	flag.Parse()

	mode := "construct"
	switch {
	case *route:
		mode = "route"
	case *serve:
		mode = "serve"
	case *clusterMode:
		mode = "cluster"
	case *churn > 0:
		mode = "churn"
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := rejectIneffective(mode, set); err != nil {
		fatal(err)
	}
	alg, err := routing.ParseAlgo(*algName)
	if err != nil {
		fatal(err)
	}
	g, err := parseGraph(*graphSpec, *seed)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	fmt.Printf("graph: %s (n=%d, m=%d)\n", *graphSpec, g.N(), g.M())

	switch mode {
	case "route":
		if *faults > 0 {
			if *workload != "uniform" {
				fatal(fmt.Errorf("-route -faults measures uniform batches; -workload %s is not supported there", *workload))
			}
			runRouteInterplay(g, *faults, *packets, *seed)
		} else {
			runRoute(g, *workload, *packets, rng)
		}
	case "serve":
		// Heartbeat every other tick and a generous TTL: a node goroutine
		// starved for a scheduling quantum on a loaded machine must not
		// see its whole neighborhood expire, or the cluster churns
		// forever. The wide TTL also derives a wide keep-alive back-off
		// cap ((TTL−2)/4 = 64 ticks), so an idle cluster's frame rate sits
		// well over an order of magnitude below the converging rate.
		cfg := cluster.Config{
			Interval: *interval, HeartbeatEvery: 2, StalenessTTL: 258, BackoffCap: *backoffCap,
		}
		runServe(alg, g, *seed, cfg)
	case "cluster":
		runCluster(alg, g, *seed, *loss)
	case "churn":
		runChurn(alg, g, *churn, *seed, *maxMoves)
	default:
		if alg.Algorithm() == nil {
			runEngine(alg, g, rng)
			return
		}
		sched, err := schedulerByName(*schedName, *seed)
		if err != nil {
			fatal(err)
		}
		runRules(alg, g, sched, rng, *faults, *maxMoves)
	}
}

// effective lists, per mode, the flags that change what the mode does
// (-graph and -seed apply to all five). A flag set outside its modes is
// rejected rather than silently ignored: route mode fixes the substrate
// (spanning, benign start) and daemon (synchronous), the churn and
// cluster demos fix their daemon and budgets, and so on.
var effective = map[string]string{
	"construct": "alg sched faults maxmoves",
	"route":     "route packets workload faults",
	"churn":     "churn alg maxmoves",
	"cluster":   "cluster alg loss",
	"serve": "serve alg admin-dir tree-out serve-for interval backoff-cap " +
		"churn-kill churn-rejoin-after trace trace-cap pprof",
}

// rejectIneffective returns an error naming the first of the flags set
// on the command line that has no effect in mode.
func rejectIneffective(mode string, set []string) error {
	ok := strings.Fields("graph seed " + effective[mode])
	for _, name := range set {
		if !slices.Contains(ok, name) {
			return fmt.Errorf("-%s has no effect in %s mode (effective there: -%s)", name, mode, strings.Join(ok, " -"))
		}
	}
	return nil
}

// schedulerByName resolves -sched through the certification harness's
// daemon registry (the names sscert -sched takes), accepting this
// command's three older spellings as aliases.
func schedulerByName(name string, seed int64) (runtime.Scheduler, error) {
	switch name {
	case "adversarial":
		name = "adversarial-unfair"
	case "roundrobin":
		name = "round-robin"
	case "random":
		name = "random-subset"
	}
	spec, err := cert.SchedulerByName(name)
	if err != nil {
		return nil, err
	}
	return spec.New(seed), nil
}

// alwaysOn returns a's rule system, or exits: the cluster and churn
// modes deploy the always-on substrates directly.
func alwaysOn(a routing.Algo, mode string) runtime.Algorithm {
	alg := a.Algorithm()
	if alg == nil {
		fatal(fmt.Errorf("%s drives the always-on substrates: spanning | switching | bfs (got %q)", mode, a))
	}
	return alg
}

// runServe is the operations-plane demo: deploy the cluster
// free-running over real loopback UDP sockets, bind one admin HTTP
// socket per node, and serve until signalled (or -serve-for elapses).
// Once the registers go quiet the stabilized parent map is published
// to -tree-out, so an external crawler (sscrawl -diff) can certify
// that the admin plane's reconstruction matches the coordinator's
// ground truth. With -churn-kill the quiet cluster then loses that
// many members mid-flight, gets them back after -churn-rejoin-after,
// and must re-stabilize — the published artifacts describe the
// post-churn cluster, so the external certification covers live
// membership, not just the boot path. With -trace every node records
// into a flight-recorder ring that sstrace (or /gettrace) collects
// into the cluster-wide causal timeline.
func runServe(a routing.Algo, g *graph.Graph, seed int64, cfg cluster.Config) {
	alg := alwaysOn(a, "-serve")
	rng := rand.New(rand.NewSource(seed))
	tr := cluster.NewUDPTransport()
	defer tr.Close()
	cl, err := cluster.New(g, alg, tr, cfg)
	if err != nil {
		fatal(err)
	}
	ops.RegisterGoCollectors(cl.Metrics())
	if *traceOn && *traceCap > 0 {
		cl.EnableFlightRecorder(*traceCap)
		fmt.Printf("flight recorder armed: %d-event rings (collect with sstrace)\n", *traceCap)
	}
	if *pprofAddr != "" {
		psrv := &http.Server{Addr: *pprofAddr, Handler: ops.PprofHandler()}
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof listener: %w", err))
		}
		defer psrv.Close()
		go psrv.Serve(ln)
		fmt.Printf("pprof: http://%s/debug/pprof/\n", ln.Addr())
	}
	cl.InitArbitrary(rng)
	admin, err := cl.ServeAdmin()
	if err != nil {
		fatal(err)
	}
	defer admin.Close()

	publishDir := func() error {
		if *adminDir == "" {
			return nil
		}
		var b strings.Builder
		for _, e := range admin.Addrs() {
			fmt.Fprintf(&b, "%d %s\n", e.ID, e.Addr)
		}
		return writeFileAtomic(*adminDir, b.String())
	}
	if err := publishDir(); err != nil {
		fatal(err)
	}
	seedID := g.MinID()
	fmt.Printf("serving %d %s nodes over loopback UDP\n", cl.Nodes(), alg.Name())
	fmt.Printf("admin seed: http://%s/  (sscrawl -addr %s; curl .../getself .../metrics)\n",
		admin.Addr(seedID), admin.Addr(seedID))

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *serveFor > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *serveFor)
		defer tcancel()
	}
	served := make(chan error, 1)
	go func() { served <- cl.Serve(ctx) }()

	// Announcement watcher: the in-band termination detector's verdicts
	// as they land — the cluster telling us it is quiet over its own
	// heartbeat frames, no mirror or coordinator read needed.
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case ev := <-cl.QuietEvents():
				if ev.Announced {
					fmt.Printf("announce: cluster quiet at epoch %d (root %d), detected in-band\n", ev.Epoch, ev.Root)
				} else {
					fmt.Printf("announce: retracted at epoch %d (root %d)\n", ev.Epoch, ev.Root)
				}
			}
		}
	}()

	// Quiet watcher: poll the mirror until it projects to a silent tree,
	// optionally put the membership through a kill/rejoin cycle, then
	// publish the parent map for external certification.
	go func() {
		waitSilent := func() *trees.Tree {
			for {
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(200 * time.Millisecond):
				}
				net, err := cl.Mirror()
				if err != nil || !net.Silent() {
					continue
				}
				tree, err := a.ExtractTree(net)
				if err != nil {
					continue // silent snapshot of a mid-flight moment; keep polling
				}
				return tree
			}
		}
		tree := waitSilent()
		if tree == nil {
			return
		}
		st := cl.Stats()
		fmt.Printf("quiet: silent tree root=%d, %d frames sent, %d register writes; still serving\n",
			tree.Root(), st.FramesSent, st.RegisterWrites)

		if *churnKill > 0 {
			victims, adj := pickVictims(cl, *churnKill)
			for _, v := range victims {
				if err := cl.Crash(v); err != nil {
					fmt.Fprintln(os.Stderr, "sstsim:", err)
					return
				}
			}
			fmt.Printf("churn: crashed %v; rejoining in %s\n", victims, *churnRejoin)
			select {
			case <-ctx.Done():
				return
			case <-time.After(*churnRejoin):
			}
			// Rejoin in crash order: an edge between two victims is
			// carried by whichever of them rejoins second.
			for _, v := range victims {
				var edges []graph.Edge
				for _, e := range adj[v] {
					if cl.Node(e.V) != nil {
						edges = append(edges, e)
					}
				}
				if err := cl.Join(v, edges); err != nil {
					fmt.Fprintln(os.Stderr, "sstsim:", err)
					return
				}
			}
			fmt.Printf("churn: rejoined %v; waiting for re-stabilization\n", victims)
			if tree = waitSilent(); tree == nil {
				return
			}
			st = cl.Stats()
			fmt.Printf("requiet: silent tree root=%d after %d joins/%d crashes, %d frames sent; still serving\n",
				tree.Root(), st.Joins, st.Crashes, st.FramesSent)
			if err := publishDir(); err != nil {
				fmt.Fprintln(os.Stderr, "sstsim:", err)
				return
			}
		}

		if *treeOut != "" {
			var b strings.Builder
			for _, v := range cl.Graph().Nodes() {
				fmt.Fprintf(&b, "%d %d\n", v, tree.Parent(v))
			}
			if err := writeFileAtomic(*treeOut, b.String()); err != nil {
				fmt.Fprintln(os.Stderr, "sstsim:", err)
				return
			}
		}
	}()

	<-ctx.Done()
	<-served
	st := cl.Stats()
	fmt.Printf("shut down: %d frames sent (%d rejected), %d heartbeats applied\n",
		st.FramesSent, st.RxRejected, st.HeartbeatsApplied)
}

// pickVictims selects up to k crash victims from the live cluster —
// never the root (the crawler's stable seed), and only nodes whose
// cumulative removal keeps the survivors connected — and records each
// victim's adjacency so the same identity can rejoin over the same
// links.
func pickVictims(cl *cluster.Cluster, k int) ([]graph.NodeID, map[graph.NodeID][]graph.Edge) {
	g := cl.Graph()
	root := g.MinID()
	survivors := g.Clone()
	var victims []graph.NodeID
	adj := make(map[graph.NodeID][]graph.Edge)
	for _, v := range g.Nodes() {
		if len(victims) == k {
			break
		}
		if v == root {
			continue
		}
		trial := survivors.Clone()
		trial.RemoveNode(v)
		if !trial.Connected() {
			continue
		}
		var es []graph.Edge
		for _, u := range g.Neighbors(v) {
			w, _ := g.EdgeWeight(v, u)
			es = append(es, graph.Edge{U: v, V: u, W: w})
		}
		adj[v] = es
		victims = append(victims, v)
		survivors = trial
	}
	return victims, adj
}

// writeFileAtomic publishes content under path via a same-directory
// rename, so concurrent readers (the CI waiter, sscrawl) never see a
// partial file.
func writeFileAtomic(path, content string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runCluster is the message-passing demo: deploy the always-on
// algorithm as a lockstep cluster over the deterministic in-process
// transport wrapped in seeded faults, watch the heartbeat
// exchange converge to the silent tree, then serve a packet batch
// end-to-end as data frames over the same links.
func runCluster(a routing.Algo, g *graph.Graph, seed int64, loss float64) {
	alg := alwaysOn(a, "-cluster")
	rng := rand.New(rand.NewSource(seed))
	ft := cluster.NewFaultTransport(cluster.NewChanTransport(), cluster.FaultConfig{
		Seed: seed + 1, Loss: loss, Dup: loss / 2, Corrupt: loss / 2, Delay: 2 * loss, MaxDelayTicks: 4,
	})
	cl, err := cluster.New(g, alg, ft, cluster.Config{StalenessTTL: 24})
	if err != nil {
		fatal(err)
	}
	defer cl.Stop()
	gw := cluster.NewGateway(cl)
	cl.InitArbitrary(rng)
	fmt.Printf("cluster: %d nodes, %s codec, faults loss=%.2f dup=%.2f corrupt=%.2f delay=%.2f\n",
		cl.Nodes(), cl.Codec().Name(), loss, loss/2, loss/2, 2*loss)

	for !func() bool { _, q := cl.RunUntilQuiet(200, 12); return q }() {
		st := cl.Stats()
		fmt.Printf("  tick %-5d changed=%-3d frames=%d rejected=%d labeled=%d/%d\n",
			cl.Ticks(), cl.ChangedLastTick(), st.FramesSent, st.RxRejected,
			gw.Labeling().Covered(), g.N())
		if cl.Ticks() > 100_000 {
			fatal(fmt.Errorf("no convergence within %d ticks", cl.Ticks()))
		}
	}
	st := cl.Stats()
	fs := ft.Stats()
	fmt.Printf("quiet after %d ticks: %d frames (%d rejected by checksum/staleness), faults lost=%d dup=%d corrupted=%d delayed=%d\n",
		cl.Ticks(), st.FramesSent, st.RxRejected, fs.Lost, fs.Duplicated, fs.Corrupted, fs.Delayed)

	net, err := cl.Mirror()
	if err != nil {
		fatal(err)
	}
	if !net.Silent() {
		fatal(fmt.Errorf("quiet cluster projects to a non-silent configuration"))
	}
	tree, err := a.ExtractTree(net)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("silent tree: root=%d height=%d max-degree=%d, register bound %d bits\n",
		tree.Root(), trees.NewIndex(tree).Height(), tree.MaxDegree(), cl.MaxRegisterBits())

	batch := 4 * g.N()
	gw.Launch(routing.UniformPairs(g.Nodes(), batch, rng))
	for i := 0; i < 8*g.N() && gw.Outstanding() > 0; i++ {
		cl.Tick()
	}
	gw.Expire()
	gws := gw.Stats()
	fmt.Printf("data plane over the faulty links: %d/%d delivered (%.1f%%), mean %.1f hops, %d lost in transit\n",
		gws.Delivered, gws.Launched, 100*gws.DeliveryRate(), gws.MeanHops(), gws.Lost)
}

// runChurn is the live-topology demo: stabilize the substrate, then run
// the churn episode the campaign certifies (cert.ChurnEpisode) on a
// seeded schedule — joins, leaves, link flaps, partitions, heals,
// corruption — printing each op as its repair window closes, and report
// the re-stabilized tree plus serving quality on the final graph.
func runChurn(a routing.Algo, g *graph.Graph, ops int, seed int64, maxMoves int) {
	alwaysOn(a, "-churn")
	rng := rand.New(rand.NewSource(seed))
	net, _, err := routing.BringUp(g, a, runtime.Synchronous(), maxMoves, rng, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("substrate %s: silent in %d rounds (%d moves)\n", net.Algorithm().Name(), net.Rounds(), net.Moves())

	out, err := cert.ChurnEpisode{
		Algo: a, Sched: runtime.Synchronous(), InFlight: 32, MovesPerWindow: 200, MaxMoves: maxMoves, PostBatch: 4,
		OnOp: func(i int, op cert.ChurnOp, lab *routing.Labeling) {
			fmt.Printf("  op %-2d %-40s n=%-4d m=%-5d labeled=%d/%d\n", i, op, g.N(), g.M(), lab.Covered(), g.N())
		},
	}.Run(net, cert.GenerateChurnSchedule(g, ops, seed+1), rng)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("re-stabilized: %d repair moves, labeling complete=true, cohort %d/%d delivered (%d dropped mid-churn)\n",
		out.Stats.Moves, out.Cohort.Delivered(), out.Cohort.Sent, out.Cohort.Dropped)
	fmt.Printf("post-churn traffic: %v\n", out.Post)
}

// runRoute stabilizes the spanning substrate from the post-reset
// configuration, labels the tree with coordinates, and drives the
// workload, printing the serving metrics.
func runRoute(g *graph.Graph, workload string, packets int, rng *rand.Rand) {
	net, tree, err := routing.BringUp(g, routing.AlgoSpanning, runtime.Synchronous(), 200_000_000, nil, nil)
	if err != nil {
		fatal(err)
	}
	lab := routing.Label(tree)
	fmt.Printf("substrate: silent in %d rounds (%d moves); root=%d height=%d; registers %d bits, coords ≤ %d bits\n",
		net.Rounds(), net.Moves(), tree.Root(), trees.NewIndex(tree).Height(), net.MaxRegisterBits(), lab.MaxLabelBits())

	var pairs []routing.Pair
	switch workload {
	case "uniform":
		pairs = routing.UniformPairs(g.Nodes(), packets, rng)
	case "hotspot":
		pairs = routing.HotspotPairs(g.Nodes(), tree.Root(), packets, 0.8, rng)
	case "allpairs":
		pairs = routing.AllPairsSample(g.Nodes(), packets, rng)
	default:
		fatal(fmt.Errorf("unknown workload %q", workload))
	}
	r := routing.NewRouter(g, lab, routing.Options{})
	stats, err := routing.Drive(r, pairs, routing.DriveOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("traffic (%s): %v\n", workload, stats)
	if stats.ExactSources > 0 {
		fmt.Printf("stretch sampled over %d sources (exact shortest paths via per-source BFS)\n", stats.ExactSources)
	}
}

// runRouteInterplay corrupts registers under live traffic and reports
// the reconvergence behaviour for each constrained-tree substrate. The
// -packets budget sizes the pre/post measurement batches.
func runRouteInterplay(g *graph.Graph, faults, packets int, seed int64) {
	batch := packets
	if batch > 100_000 {
		batch = 100_000 // pre/post batches; the default -packets is fine
	}
	for _, sub := range []routing.Algo{routing.AlgoBFS, routing.AlgoMST, routing.AlgoMDST} {
		rep, err := routing.RunInterplay(g, routing.InterplayConfig{
			Substrate:    sub,
			Faults:       faults,
			BatchPackets: batch,
			Seed:         seed,
		})
		if err != nil {
			fatal(fmt.Errorf("%s substrate: %w", sub, err))
		}
		fmt.Printf("\nsubstrate %s (height %d→%d, max-degree %d→%d):\n",
			sub, rep.PreHeight, rep.PostHeight, rep.PreMaxDegree, rep.PostMaxDegree)
		fmt.Printf("  pre-fault:  %v\n", rep.Pre)
		fmt.Printf("  faults: %d registers corrupted under %d in-flight packets\n", faults, rep.InFlight.Sent)
		fmt.Printf("  reconverge: %d moves over %d windows, %d register writes observed\n",
			rep.ReconvergeMoves, rep.Windows, rep.TopologyWrites)
		fmt.Printf("  in-flight:  delivered %d during repair + %d after, looped %d, dropped %d, stalled windows %d\n",
			rep.InFlight.DeliveredDuring, rep.InFlight.DeliveredAfter,
			rep.InFlight.Looped, rep.InFlight.Dropped, rep.InFlight.StallWindows)
		fmt.Printf("  post-recovery: %v\n", rep.Post)
	}
}

func runEngine(a routing.Algo, g *graph.Graph, rng *rand.Rand) {
	final, trace, err := core.RunDistributed(g, a.Task(), core.EngineOptions{Rng: rng})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stabilized: rounds=%d moves=%d improvements=%d\n",
		trace.Rounds, trace.Moves, trace.Improvements)
	fmt.Printf("registers: substrate=%d bits, task labels=%d bits\n",
		trace.MaxRegisterBits, trace.MaxLabelBits)
	fmt.Printf("potential trajectory: %v\n", trace.Potentials)
	switch a {
	case routing.AlgoMST:
		exact, err := mst.IsMST(final, g)
		if err != nil {
			fatal(err)
		}
		w, _ := final.Weight(g)
		fmt.Printf("result: exact MST = %v, weight = %d\n", exact, w)
	case routing.AlgoMDST:
		fr, err := mdst.IsFRTree(g, final)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("result: FR-tree = %v, degree = %d (≤ OPT+1)\n", fr, final.MaxDegree())
	}
}

func runRules(a routing.Algo, g *graph.Graph, sched runtime.Scheduler, rng *rand.Rand, faults, maxMoves int) {
	net, err := runtime.NewNetwork(g, a.Algorithm())
	if err != nil {
		fatal(err)
	}
	net.InitArbitrary(rng)
	res, err := net.Run(sched, maxMoves)
	if err != nil {
		fatal(err)
	}
	report(net, res, a)
	for i := 0; i < faults; i++ {
		victims := runtime.Corrupt(net, 1+rng.Intn(3), rng)
		fmt.Printf("\ninjected faults at nodes %v\n", victims)
		// Result counts run since the network was built: report, and
		// cap, this recovery's own.
		moves0, rounds0 := net.Moves(), net.Rounds()
		res, err = net.Run(sched, moves0+maxMoves)
		if err != nil {
			fatal(err)
		}
		res.Moves -= moves0
		res.Rounds -= rounds0
		report(net, res, a)
	}
}

func report(net *runtime.Network, res runtime.Result, a routing.Algo) {
	fmt.Printf("stabilized: silent=%v rounds=%d moves=%d max-register=%d bits\n",
		res.Silent, res.Rounds, res.Moves, res.MaxRegisterBits)
	if !res.Silent {
		return
	}
	t, err := a.ExtractTree(net)
	if err != nil {
		fatal(err)
	}
	if a == routing.AlgoSpanning {
		fmt.Printf("tree: root=%d height=%d\n", t.Root(), trees.NewIndex(t).Height())
	} else {
		fmt.Printf("tree: root=%d height=%d BFS=%v\n",
			t.Root(), trees.NewIndex(t).Height(), trees.IsBFSTree(t, net.Graph()))
	}
}

// graphFamilies maps each -graph family to its parameter form (i is an
// integer field, f a float), the smallest value of each integer the
// generator accepts, and the generator.
var graphFamilies = map[string]struct {
	form  string
	min   [2]int
	build func(n [2]int, p float64, rng *rand.Rand) *graph.Graph
}{
	"ring":      {"i", [2]int{3}, func(n [2]int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Ring(n[0]) }},
	"path":      {"i", [2]int{1}, func(n [2]int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Path(n[0]) }},
	"star":      {"i", [2]int{1}, func(n [2]int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Star(n[0]) }},
	"complete":  {"i", [2]int{1}, func(n [2]int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Complete(n[0]) }},
	"grid":      {"ii", [2]int{1, 1}, func(n [2]int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Grid(n[0], n[1]) }},
	"lollipop":  {"ii", [2]int{1, 0}, func(n [2]int, _ float64, _ *rand.Rand) *graph.Graph { return graph.Lollipop(n[0], n[1]) }},
	"random":    {"if", [2]int{1}, func(n [2]int, p float64, rng *rand.Rand) *graph.Graph { return graph.RandomConnected(n[0], p, rng) }},
	"geometric": {"if", [2]int{1}, func(n [2]int, p float64, rng *rand.Rand) *graph.Graph { return graph.RandomGeometric(n[0], p, rng) }},
}

// parseGraph builds the graph a family:params spec names. Arity, field
// syntax and sizes are checked here — the spec comes from the command
// line, and the generators panic on (or build an empty graph from) what
// they cannot make.
func parseGraph(spec string, seed int64) (*graph.Graph, error) {
	parts := strings.Split(spec, ":")
	fam, ok := graphFamilies[parts[0]]
	if !ok {
		return nil, fmt.Errorf("unknown graph family %q", parts[0])
	}
	want := parts[0] + strings.NewReplacer("i", ":<int>", "f", ":<float>").Replace(fam.form)
	if len(parts) != 1+len(fam.form) {
		return nil, fmt.Errorf("graph spec %q: want %s", spec, want)
	}
	var (
		n [2]int
		p float64
	)
	for k, kind := range fam.form {
		var err error
		if kind == 'i' {
			n[k], err = strconv.Atoi(parts[1+k])
			if err == nil && n[k] < fam.min[k] {
				err = fmt.Errorf("must be at least %d", fam.min[k])
			}
		} else {
			p, err = strconv.ParseFloat(parts[1+k], 64)
			if err == nil && (math.IsNaN(p) || math.IsInf(p, 0)) {
				err = errors.New("must be finite")
			}
		}
		if ne := (*strconv.NumError)(nil); errors.As(err, &ne) {
			err = ne.Err // "invalid syntax", without strconv's own prefix
		}
		if err != nil {
			return nil, fmt.Errorf("graph spec %q: field %q: %v (want %s)", spec, parts[1+k], err, want)
		}
	}
	return fam.build(n, p, rand.New(rand.NewSource(seed))), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sstsim:", err)
	os.Exit(1)
}
