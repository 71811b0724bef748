package cert

// Message-passing cluster certification: the campaigns of this file
// re-certify the convergence claims over internal/cluster — the
// shared-memory→message-passing transform running each node as a
// state machine exchanging heartbeat frames over an adversarial
// transport — instead of the simulator's atomic views. Every run must
// reach quiet under seeded loss/duplication/reordering/corruption,
// project to a silent, closed, spec-correct shared-memory
// configuration within the register bound, reconstruct the same tree
// through the operations plane's crawler (admin API only, no
// coordinator access), and serve a packet batch end-to-end over the
// same transport once the control plane settles.

import (
	"fmt"
	"math/rand"
	"strings"

	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trace"
	"silentspan/internal/trees"
)

// flightTraceCap sizes the certification campaigns' per-node event
// rings. 1<<15 events comfortably holds the full history of every
// campaign-sized run, so the merged causal past is complete and the
// trace invariants below are exact rather than advisory.
const flightTraceCap = 1 << 15

// ClusterProfile names one transport fault profile of the campaign.
type ClusterProfile struct {
	Name   string
	Faults cluster.FaultConfig
}

// ClusterProfiles is the campaign's transport adversary registry: a
// perfect network (the transform alone), a lossy one, and the full
// menu — loss, duplication, reordering (delay jitter), and byte
// corruption caught by the frame checksum.
func ClusterProfiles() []ClusterProfile {
	return []ClusterProfile{
		{Name: "clean", Faults: cluster.FaultConfig{}},
		{Name: "lossy", Faults: cluster.FaultConfig{Loss: 0.15, Dup: 0.05}},
		{Name: "chaotic", Faults: cluster.FaultConfig{
			Loss: 0.1, Dup: 0.1, Corrupt: 0.05, Delay: 0.2, MaxDelayTicks: 4}},
	}
}

// ClusterConfig parameterizes the cluster certification campaign. Zero
// values take the documented defaults.
type ClusterConfig struct {
	// MaxN: graphs on 3..MaxN nodes (default 6).
	MaxN int `json:"max_n"`
	// Runs per (graph, algorithm, profile) (default 1).
	Runs int `json:"runs"`
	// InFlight: packet cohort launched mid-convergence (default 8).
	InFlight int `json:"in_flight"`
	// MaxTicks caps each convergence (default 50000).
	MaxTicks int `json:"max_ticks"`
	// QuietTicks: register-stability window declaring quiet; must
	// exceed the heartbeat period plus the worst fault delay
	// (default 12).
	QuietTicks int `json:"quiet_ticks"`
	// ChurnOps is the length of the live-membership churn schedule
	// driven through Cluster.Join/Leave/Crash/AddEdge/RemoveEdge after
	// the first stabilization, followed by a crash-and-rejoin coda on a
	// surviving member (0 disables the churn phase entirely).
	ChurnOps int `json:"churn_ops"`
	// Seed drives graphs, inits, fault schedules, and cohorts.
	Seed int64 `json:"seed"`
	// Algos restricts the algorithm set (default all five).
	Algos []routing.Algo `json:"-"`
	// MaxCounterexamples stops the hunt (default 20).
	MaxCounterexamples int `json:"max_counterexamples"`
}

func (c *ClusterConfig) fill() {
	if c.MaxN == 0 {
		c.MaxN = 6
	}
	if c.Runs == 0 {
		c.Runs = 1
	}
	if c.InFlight == 0 {
		c.InFlight = 8
	}
	if c.MaxTicks == 0 {
		c.MaxTicks = 50_000
	}
	if c.QuietTicks == 0 {
		c.QuietTicks = 12
	}
	if len(c.Algos) == 0 {
		c.Algos = routing.AllAlgos()
	}
	if c.MaxCounterexamples == 0 {
		c.MaxCounterexamples = 20
	}
}

// ClusterWorst records the most expensive certified cluster runs per
// algorithm (Scheduler fields carry the fault profile).
type ClusterWorst struct {
	Ticks        WorstEntry `json:"ticks"`
	RegisterBits WorstEntry `json:"register_bits"`
}

// ClusterReport summarizes a cluster certification campaign.
type ClusterReport struct {
	Config         ClusterConfig           `json:"config"`
	Graphs         int                     `json:"graphs"`
	Runs           int                     `json:"runs"`
	FramesSent     int                     `json:"frames_sent"`
	FramesRejected int                     `json:"frames_rejected"`
	PacketsSent    int                     `json:"packets_sent"`
	PacketsArrived int                     `json:"packets_arrived"`
	Joins          int                     `json:"joins,omitempty"`
	Leaves         int                     `json:"leaves,omitempty"`
	Crashes        int                     `json:"crashes,omitempty"`
	Worst          map[string]ClusterWorst `json:"worst"`
	Ledger
}

// RunCluster executes the cluster certification campaign: every graph
// × algorithm × transport fault profile × seeded run.
func RunCluster(cfg ClusterConfig, logf func(format string, args ...any)) (*ClusterReport, error) {
	cfg.fill()
	rep := &ClusterReport{Config: cfg, Worst: make(map[string]ClusterWorst), Ledger: newLedger(cfg.MaxCounterexamples, logf)}
	instances := churnGraphs(cfg.MaxN, cfg.Seed)
	rep.Graphs = len(instances)
	profiles := ClusterProfiles()

	for gi, ng := range instances {
		for _, a := range cfg.Algos {
			for _, prof := range profiles {
				for run := 0; run < cfg.Runs; run++ {
					seed := cfg.Seed + int64(gi*100_000+run*1000)
					rep.Runs++
					ticks, bits, st, gws, err := runOneCluster(a, ng, prof, cfg, seed)
					rep.FramesSent += st.FramesSent
					rep.FramesRejected += st.RxRejected
					rep.PacketsSent += gws.Launched
					rep.PacketsArrived += gws.Delivered
					rep.Joins += st.Joins
					rep.Leaves += st.Leaves
					rep.Crashes += st.Crashes
					if err == nil {
						w := rep.Worst[a.String()]
						w.Ticks.raise(ticks, ng.Name, prof.Name)
						w.RegisterBits.raise(bits, ng.Name, prof.Name)
						rep.Worst[a.String()] = w
					} else if rep.falsified(ng, a, prof.Name, fmt.Sprintf("cluster seed=%d", seed), err) {
						return rep, nil
					}
				}
			}
		}
		rep.progress(gi, len(instances), 5, "clustered %d/%d graphs, %d runs, %d frames (%d rejected), %d/%d packets, %d counterexamples",
			gi+1, len(instances), rep.Runs, rep.FramesSent, rep.FramesRejected,
			rep.PacketsArrived, rep.PacketsSent, len(rep.Counterexamples))
	}
	return rep, nil
}

// clusterAlgorithm returns the algorithm a cluster run executes and an
// initializer for its registers: the always-on algorithms start from a
// fully adversarial configuration; MST/MDST (engine-driven in the
// simulator) deploy their reference tree into the switching protocol
// and take transient corruption on top — the deployment story at any
// scale, matching the chaos and churn campaigns.
func clusterAlgorithm(a routing.Algo, g *graph.Graph) (runtime.Algorithm, func(cl *cluster.Cluster, rng *rand.Rand), error) {
	if alg := a.Algorithm(); alg != nil {
		return alg, (*cluster.Cluster).InitArbitrary, nil
	}
	t, err := referenceTree(a)(g)
	if err != nil {
		return nil, nil, err
	}
	return switching.Algorithm{}, func(cl *cluster.Cluster, rng *rand.Rand) {
		switching.LoadTree(t, cl.SetState)
		cl.Corrupt(2, rng)
	}, nil
}

// checkCrawl certifies the operations plane against the mirror: crawl
// the cluster hop-by-hop from a random start through the in-process
// admin hub, and diff the reconstructed parent map edge-by-edge
// against the coordinator's ground truth.
func checkCrawl(cl *cluster.Cluster, net *runtime.Network, g *graph.Graph, rng *rand.Rand) error {
	nodes := g.Nodes()
	start := nodes[rng.Intn(len(nodes))]
	rep, err := ops.Crawl(cl.AdminHub(), start)
	if err != nil {
		return err
	}
	if rep.Visited() != g.N() {
		return fmt.Errorf("visited %d of %d nodes from %d (errors: %v)", rep.Visited(), g.N(), start, rep.Errors)
	}
	if len(rep.Errors) != 0 {
		return fmt.Errorf("unreachable admin endpoints: %v", rep.Errors)
	}
	want := make(map[graph.NodeID]graph.NodeID, g.N())
	for _, v := range nodes {
		p := routing.ParentOf(net.State(v))
		if p == routing.NoParent || p == trees.None {
			p = ops.None
		}
		want[v] = p
	}
	if diffs := rep.DiffParents(want); len(diffs) != 0 {
		return fmt.Errorf("crawl diverges from mirror: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// quietAnnounceBound is the certified detector-latency budget for a
// quiet cluster: the local-quiet window (the staleness TTL), one TTL of
// report decay, and a per-level propagation allowance with generous
// headroom for the lossy profiles — reports ride every keep-alive, so a
// lost frame retries within one back-off gap.
func quietAnnounceBound(cl *cluster.Cluster, cfg ClusterConfig) int {
	window := 4 * cfg.QuietTicks // the pinned StalenessTTL
	cap := max(1, cfg.QuietTicks/3)
	return 2*window + 8*(cl.Nodes()+2)*(cap+2)
}

// checkQuietAnnounce ticks a quiet cluster until the in-band detector
// announces, certifying both detector claims at once: bounded latency,
// and zero false positives — at the moment the announcement is up, the
// coordinator's ground truth must agree the registers have been silent.
func checkQuietAnnounce(cl *cluster.Cluster, cfg ClusterConfig) error {
	bound := quietAnnounceBound(cl, cfg)
	for i := 0; i < bound; i++ {
		if cl.QuietAnnounced() {
			if cl.QuietFor() == 0 {
				return fmt.Errorf("quiet detector false positive: announcement up in a tick with register writes")
			}
			return nil
		}
		cl.Tick()
	}
	return fmt.Errorf("no in-band quiet announcement within %d ticks of quiet", bound)
}

// runOneCluster is one certified run.
func runOneCluster(a routing.Algo, ng NamedGraph, prof ClusterProfile, cfg ClusterConfig, seed int64) (
	ticks, registerBits int, st cluster.Stats, gws cluster.GatewayStats, err error) {
	g := ng.G
	if cfg.ChurnOps > 0 {
		// The churn phase mutates the graph through the cluster's
		// membership mutators; the campaign's shared instance must not
		// carry those mutations into the next run.
		g = g.Clone()
	}
	rng := rand.New(rand.NewSource(seed))
	alg, init, err := clusterAlgorithm(a, g)
	if err != nil {
		return 0, 0, st, gws, err
	}
	faults := prof.Faults
	faults.Seed = seed + 1
	ft := cluster.NewFaultTransport(cluster.NewChanTransport(), faults)
	// BackoffCap is tightened below its TTL-derived default so the
	// QuietTicks stability window always spans several keep-alives per
	// edge: the silence verdict is read off the registers alone, and
	// under a lossy adversary it is only as trustworthy as the number of
	// refresh opportunities inside the window.
	cl, err := cluster.New(g, alg, ft, cluster.Config{
		StalenessTTL: 4 * cfg.QuietTicks,
		BackoffCap:   max(1, cfg.QuietTicks/3),
	})
	if err != nil {
		return 0, 0, st, gws, err
	}
	defer cl.Stop()
	// Flight recorder on for every certified run: the causal invariants
	// at the end of the battery read the rings of the whole history,
	// departed members included.
	cl.EnableFlightRecorder(flightTraceCap)
	gw := cluster.NewGateway(cl)
	init(cl, rng)

	// Cohort launched mid-convergence, flying over the decaying labeling.
	for i := 0; i < 3; i++ {
		cl.Tick()
	}
	gw.Launch(routing.UniformPairs(g.Nodes(), cfg.InFlight, rng))

	ticks, quiet := cl.RunUntilQuiet(cfg.MaxTicks, cfg.QuietTicks)
	st = cl.Stats()
	gws = gw.Stats()
	if !quiet {
		return ticks, cl.MaxRegisterBits(), st, gws, fmt.Errorf("no quiet within %d ticks", cfg.MaxTicks)
	}
	// The cluster must now discover its own silence in-band — the
	// convergecast over the constructed tree, with the faults still on.
	if err := checkQuietAnnounce(cl, cfg); err != nil {
		return ticks, cl.MaxRegisterBits(), cl.Stats(), gw.Stats(), err
	}

	// Live-membership churn: drive a validated schedule through the
	// cluster's own mutators — actors spawn and retire mid-run, neighbor
	// rows remap, goodbyes and adverts fly over the same faulty
	// transport — then assert the cluster re-stabilizes and every
	// downstream check holds on the final graph. The first cohort is
	// still in flight while members leave, so the ledger check below
	// also certifies that departing destinations orphan (not leak) their
	// parked packets.
	if cfg.ChurnOps > 0 {
		if err := driveClusterChurn(cl, g, cfg, rng, seed); err != nil {
			return ticks, cl.MaxRegisterBits(), cl.Stats(), gw.Stats(), err
		}
		churnTicks, quiet := cl.RunUntilQuiet(cfg.MaxTicks, cfg.QuietTicks)
		ticks += churnTicks
		st = cl.Stats()
		gws = gw.Stats()
		if !quiet {
			return ticks, cl.MaxRegisterBits(), st, gws,
				fmt.Errorf("no re-stabilization after churn within %d ticks", cfg.MaxTicks)
		}
		// Churn bumped write epochs cluster-wide through the remaps, so
		// any pre-churn announcement is retracted; the reshaped cluster
		// must re-announce for its new membership.
		if err := checkQuietAnnounce(cl, cfg); err != nil {
			return ticks, cl.MaxRegisterBits(), st, gws, fmt.Errorf("after churn: %w", err)
		}
	}

	// Project into the shared-memory model: silence, closure, spec, and
	// the register bound all check against the simulator's own machinery.
	net, err := cl.Mirror()
	if err != nil {
		return ticks, 0, st, gws, err
	}
	if !net.Silent() {
		return ticks, 0, st, gws, fmt.Errorf("quiet cluster projects to a non-silent configuration: enabled %v", net.Enabled())
	}
	if err := runtime.CheckSilentStable(net); err != nil {
		return ticks, 0, st, gws, err
	}
	before := net.Moves()
	if _, err := net.Run(runtime.Synchronous(), before+8); err != nil {
		return ticks, 0, st, gws, fmt.Errorf("closure probe: %w", err)
	}
	if net.Moves() != before {
		return ticks, 0, st, gws, fmt.Errorf("closure violated: %d moves after quiet", net.Moves()-before)
	}
	if err := checkSpec(a, g, net); err != nil {
		return ticks, 0, st, gws, fmt.Errorf("spec: %w", err)
	}
	registerBits = cl.MaxRegisterBits()
	if bound := RegisterBitsBound(a, g); registerBits > bound {
		return ticks, registerBits, st, gws, fmt.Errorf("register width %d bits exceeds bound %d", registerBits, bound)
	}

	// Operations plane: a crawler walking the live cluster through the
	// admin API alone — seeded at one arbitrary node, no coordinator
	// access — must reconstruct the stabilized tree edge-for-edge equal
	// to the mirror's.
	if err := checkCrawl(cl, net, g, rng); err != nil {
		return ticks, registerBits, st, gws, fmt.Errorf("crawl: %w", err)
	}

	// Data plane: resolve the mid-chaos cohort (losses are legal
	// casualties, but every packet must be accounted), then a fresh
	// batch over the quiesced transport must deliver 100%.
	for i := 0; i < 8*g.N() && gw.Outstanding() > 0; i++ {
		cl.Tick()
	}
	gw.Expire()
	mid := gw.Stats()
	if mid.Delivered+mid.Dropped+mid.Lost != mid.Launched {
		return ticks, registerBits, st, mid, fmt.Errorf("cohort unaccounted: %+v", mid)
	}
	if !gw.Labeling().Complete() {
		return ticks, registerBits, st, mid, fmt.Errorf("labeling incomplete after quiet: %d covered", gw.Labeling().Covered())
	}
	ft.SetEnabled(false)
	batch := 2 * g.N()
	gw.Launch(routing.UniformPairs(g.Nodes(), batch, rng))
	for i := 0; i < 8*g.N() && gw.Outstanding() > 0; i++ {
		cl.Tick()
	}
	gws = gw.Stats()
	st = cl.Stats()
	if gws.Delivered-mid.Delivered != batch {
		return ticks, registerBits, st, gws, fmt.Errorf("post-quiet batch: %d of %d delivered over a clean transport",
			gws.Delivered-mid.Delivered, batch)
	}

	// Detector coda: one register write anywhere must retract the
	// standing announcement (the epoch bump dominates every stale
	// claim), and the re-stabilized cluster must re-announce at a
	// strictly higher epoch — the self-stabilization story of §13.
	epoch := cl.QuietEpoch()
	cl.Corrupt(1, rng)
	bound := quietAnnounceBound(cl, cfg)
	retracted := false
	for i := 0; i < bound; i++ {
		cl.Tick()
		if !cl.QuietAnnounced() {
			retracted = true
			break
		}
	}
	if !retracted {
		return ticks, registerBits, st, gws, fmt.Errorf("announcement not retracted within %d ticks of a register write", bound)
	}
	if _, q := cl.RunUntilQuiet(cfg.MaxTicks, cfg.QuietTicks); !q {
		return ticks, registerBits, st, gws, fmt.Errorf("no requiet after detector coda within %d ticks", cfg.MaxTicks)
	}
	if err := checkQuietAnnounce(cl, cfg); err != nil {
		return ticks, registerBits, st, gws, fmt.Errorf("after retraction: %w", err)
	}
	if again := cl.QuietEpoch(); again <= epoch {
		return ticks, registerBits, st, gws, fmt.Errorf("re-announced at epoch %d, want above %d", again, epoch)
	}

	// Trace invariants: the flight recorder's merged happens-before DAG
	// must certify — causally, not just by sampled state — that every
	// announcement in the run's history was earned and every delivered
	// packet hopped a contiguous chain.
	if err := checkFlightTrace(cl); err != nil {
		return ticks, registerBits, st, gws, fmt.Errorf("trace: %w", err)
	}
	st = cl.Stats()
	return ticks, registerBits, st, gws, nil
}

// checkFlightTrace merges every flight-recorder ring (departed members
// included) and certifies the two causal invariants over the entire
// recorded history: every quiet announcement has subtree-quiet reports
// covering its claimed count inside its causal past, and every
// delivered packet has a contiguous possession chain from launch to
// delivery. It runs after the detector coda, so the causally latest
// announcement must also cover the current membership exactly.
func checkFlightTrace(cl *cluster.Cluster) error {
	merged := trace.Merge(cl.FlightTraces())
	if merged.Rings == 0 {
		return fmt.Errorf("flight recorder produced no rings")
	}
	if merged.Dropped > 0 {
		// Wrapped rings make the causal past incomplete by design and the
		// invariants would false-positive; campaign-sized runs must never
		// wrap a flightTraceCap ring, so this is a sizing bug, not a skip.
		return fmt.Errorf("flight rings wrapped (%d events dropped): raise flightTraceCap", merged.Dropped)
	}
	if viol := merged.CheckAnnounceCoverage(); len(viol) != 0 {
		return fmt.Errorf("announce coverage: %s", strings.Join(viol, "; "))
	}
	if viol := merged.CheckPacketChains(); len(viol) != 0 {
		return fmt.Errorf("packet chains: %s", strings.Join(viol, "; "))
	}
	ann, ok := merged.LatestAnnounce()
	if !ok {
		return fmt.Errorf("no announce event recorded")
	}
	if ann.Arg != uint64(cl.Nodes()) {
		return fmt.Errorf("latest announce covers %d nodes, want %d", ann.Arg, cl.Nodes())
	}
	return nil
}

// clusterTarget adapts a live cluster to ChurnTarget. Join, AddEdge,
// RemoveEdge and Corrupt are the cluster's own mutators; Leave
// alternates between cooperative (goodbye broadcast) and crash
// (staleness-TTL discovery) so a schedule exercises both eviction paths.
type clusterTarget struct {
	*cluster.Cluster
	crashNext bool
}

func (t *clusterTarget) Leave(id graph.NodeID) error {
	crash := t.crashNext
	t.crashNext = !crash
	if crash {
		return t.Crash(id)
	}
	return t.Cluster.Leave(id)
}

// driveClusterChurn replays a validated churn schedule through the
// cluster's live-membership mutators, a few repair ticks after each op,
// then runs the crash-and-rejoin coda: one surviving member crashes
// without a goodbye and the same id rejoins over the same links —
// the acceptance scenario in lockstep form.
func driveClusterChurn(cl *cluster.Cluster, g *graph.Graph, cfg ClusterConfig, rng *rand.Rand, seed int64) error {
	repair := func() {
		for i := 0; i < 6; i++ {
			cl.Tick()
		}
	}
	target := &clusterTarget{Cluster: cl}
	for _, op := range GenerateChurnSchedule(g, cfg.ChurnOps, seed+5) {
		if _, err := ApplyChurnOp(target, op, rng); err != nil {
			return fmt.Errorf("churn %s: %w", op, err)
		}
		repair()
	}
	// Crash-and-rejoin coda. The victim's links are recorded before the
	// crash; the rejoining incarnation must slot back in against
	// neighbors that may still hold in-flight frames from its previous
	// life.
	nodes := g.Nodes()
	victim := nodes[rng.Intn(len(nodes))]
	var edges []graph.Edge
	for _, u := range g.Neighbors(victim) {
		w, _ := g.EdgeWeight(victim, u)
		edges = append(edges, graph.Edge{U: victim, V: u, W: w})
	}
	if err := cl.Crash(victim); err != nil {
		return fmt.Errorf("coda crash %d: %w", victim, err)
	}
	for i := 0; i < 4; i++ {
		cl.Tick()
	}
	if err := cl.Join(victim, edges); err != nil {
		return fmt.Errorf("coda rejoin %d: %w", victim, err)
	}
	repair()
	return nil
}
