package cert

import (
	"fmt"
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// ChaosConfig parameterizes one chaos campaign. Zero values take the
// documented defaults.
type ChaosConfig struct {
	// N and EdgeProb shape the RandomConnected instance
	// (defaults 10000 and 3/n).
	N        int     `json:"n"`
	EdgeProb float64 `json:"edge_prob"`
	// Substrate: bfs | mst | mdst (default bfs). The BFS substrate
	// stabilizes the always-on rule system from an arbitrary start;
	// MST/MDST load a reference tree (Kruskal / greedy low-degree) into
	// the switching protocol — the silent configuration the distributed
	// engines stabilize to, reachable at campaign scale.
	Substrate string `json:"substrate"`
	// Scheduler names the daemon from the registry driving every
	// repair (default random-subset; greedy-stretch is the hostile
	// choice).
	Scheduler string `json:"scheduler"`
	// Bursts is the number of fault bursts (default 5).
	Bursts int `json:"bursts"`
	// CorruptPerBurst registers are overwritten with arbitrary states,
	// WipesPerBurst registers are erased outright, and
	// ReweighsPerBurst edges get fresh random weights, per burst
	// (defaults 8, 2, 4).
	CorruptPerBurst  int `json:"corrupt_per_burst"`
	WipesPerBurst    int `json:"wipes_per_burst"`
	ReweighsPerBurst int `json:"reweighs_per_burst"`
	// InFlight packets are launched right before each burst and keep
	// flying over the decaying labeling during repair (default 64).
	InFlight int `json:"in_flight"`
	// MovesPerWindow / StepsPerWindow / MaxWindows shape the
	// repair-vs-routing interleaving (defaults 200, 2, 100000).
	MovesPerWindow int `json:"moves_per_window"`
	StepsPerWindow int `json:"steps_per_window"`
	MaxWindows     int `json:"max_windows"`
	// TrafficBatch sizes the post-recovery stretch measurement
	// (default 256).
	TrafficBatch int `json:"traffic_batch"`
	// StabilizeMoves caps the initial stabilization and each burst's
	// recovery (default 20,000,000).
	StabilizeMoves int `json:"stabilize_moves"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
}

func (c *ChaosConfig) fill() {
	if c.N == 0 {
		c.N = 10_000
	}
	if c.EdgeProb == 0 {
		c.EdgeProb = 3 / float64(c.N)
	}
	if c.Substrate == "" {
		c.Substrate = "bfs"
	}
	if c.Scheduler == "" {
		c.Scheduler = "random-subset"
	}
	if c.Bursts == 0 {
		c.Bursts = 5
	}
	if c.CorruptPerBurst == 0 {
		c.CorruptPerBurst = 8
	}
	if c.WipesPerBurst == 0 {
		c.WipesPerBurst = 2
	}
	if c.ReweighsPerBurst == 0 {
		c.ReweighsPerBurst = 4
	}
	if c.InFlight == 0 {
		c.InFlight = 64
	}
	if c.MovesPerWindow == 0 {
		c.MovesPerWindow = 200
	}
	if c.StepsPerWindow == 0 {
		c.StepsPerWindow = 2
	}
	if c.MaxWindows == 0 {
		c.MaxWindows = 100_000
	}
	if c.TrafficBatch == 0 {
		c.TrafficBatch = 256
	}
	if c.StabilizeMoves == 0 {
		c.StabilizeMoves = 20_000_000
	}
}

// BurstRecord is the accounting of one fault burst and its recovery.
type BurstRecord struct {
	Burst          int     `json:"burst"`
	Corrupted      int     `json:"corrupted"`
	Wiped          int     `json:"wiped"`
	Reweighed      int     `json:"reweighed"`
	RecoveryMoves  int     `json:"recovery_moves"`
	RecoveryRounds int     `json:"recovery_rounds"`
	Windows        int     `json:"windows"`
	TopologyWrites int     `json:"topology_writes"`
	Delivered      int     `json:"delivered"`
	DuringRepair   int     `json:"during_repair"`
	Looped         int     `json:"looped"`
	Dropped        int     `json:"dropped"`
	StallWindows   int     `json:"stall_windows"`
	RegisterBits   int     `json:"register_bits"`
	PostStretch    float64 `json:"post_stretch"`
	PostDelivery   float64 `json:"post_delivery"`
	TreeHeight     int     `json:"tree_height"`
	TreeMaxDegree  int     `json:"tree_max_degree"`
}

// ChaosWorst aggregates the observed worst cases over all bursts — the
// values CI diffs against committed bounds.
type ChaosWorst struct {
	RecoveryMoves  int     `json:"recovery_moves"`
	RecoveryRounds int     `json:"recovery_rounds"`
	Windows        int     `json:"windows"`
	RegisterBits   int     `json:"register_bits"`
	Stretch        float64 `json:"stretch"`
	Dropped        int     `json:"dropped"`
	MinDelivery    float64 `json:"min_delivery"`
}

// Certificate is the machine-readable outcome of one chaos campaign.
type Certificate struct {
	Tool           string        `json:"tool"`
	Config         ChaosConfig   `json:"config"`
	N              int           `json:"n"`
	M              int           `json:"m"`
	Algorithm      string        `json:"algorithm"`
	InitialMoves   int           `json:"initial_moves"`
	InitialRounds  int           `json:"initial_rounds"`
	RegisterBound  int           `json:"register_bound"`
	Bursts         []BurstRecord `json:"bursts"`
	Worst          ChaosWorst    `json:"worst"`
	FinalSilent    bool          `json:"final_silent"`
	FinalSpecValid bool          `json:"final_spec_valid"`
}

// RunChaos executes one campaign: bring up the substrate and attach the
// live-router rig, then repeat fault bursts — register corruption,
// register wipes, edge-weight churn — each with a cohort of packets
// already in flight, reconverging under the configured daemon (repair
// windows interleaved with routing windows over the decaying labeling)
// until silence returns. Worst cases across all bursts are distilled
// into the certificate.
func RunChaos(cfg ChaosConfig, logf func(format string, args ...any)) (*Certificate, error) {
	cfg.fill()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schedSpec, err := SchedulerByName(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	sched := schedSpec.New(cfg.Seed + 1)
	// Every check below reads switching registers, and the campaign is
	// documented for the three constrained trees.
	a, err := routing.ParseAlgo(cfg.Substrate)
	if err != nil || a.Algorithm() != nil && a != routing.AlgoBFS {
		return nil, fmt.Errorf("cert: unknown substrate %q (want bfs | mst | mdst)", cfg.Substrate)
	}

	g := graph.RandomConnected(cfg.N, cfg.EdgeProb, rng)
	net, _, err := routing.BringUp(g, a, sched, cfg.StabilizeMoves, rng, referenceTree(a))
	if err != nil {
		return nil, err
	}
	c := &Certificate{
		Tool: "sscert", Config: cfg, N: g.N(), M: g.M(),
		Algorithm:     net.Algorithm().Name(),
		InitialMoves:  net.Moves(),
		InitialRounds: net.Rounds(),
		RegisterBound: RegisterBitsBound(a, g),
	}
	c.Worst.MinDelivery = 1
	logf("substrate %s up on n=%d m=%d (%d moves)", cfg.Substrate, g.N(), g.M(), net.Moves())

	live := routing.NewLive(net)
	nodes := g.Nodes()
	edges := g.Edges()

	maxWeight := int64(cfg.N) * int64(cfg.N-1) / 2 * 1000
	for b := 0; b < cfg.Bursts; b++ {
		rec := BurstRecord{Burst: b}
		flight := routing.NewFlight(routing.UniformPairs(nodes, cfg.InFlight, rng))

		// The burst: corruption, wipes, weight churn.
		rec.Corrupted = len(runtime.Corrupt(net, cfg.CorruptPerBurst, rng))
		for i := 0; i < cfg.WipesPerBurst; i++ {
			net.SetState(nodes[rng.Intn(len(nodes))], nil)
			rec.Wiped++
		}
		for i := 0; i < cfg.ReweighsPerBurst; i++ {
			e := edges[rng.Intn(len(edges))]
			if err := net.PerturbEdgeWeight(e.U, e.V, graph.Weight(rng.Int63n(maxWeight)+1)); err != nil {
				return c, err
			}
			rec.Reweighed++
		}

		// Recovery: repair windows interleaved with routing windows.
		movesBefore, roundsBefore, writesBefore := net.Moves(), net.Rounds(), live.Writes()
		rec.Windows, err = live.Reconverge(sched, cfg.MovesPerWindow, cfg.StepsPerWindow, cfg.MaxWindows, flight)
		if err != nil {
			return c, fmt.Errorf("cert: burst %d %w", b, err)
		}
		rec.RecoveryMoves = net.Moves() - movesBefore
		rec.RecoveryRounds = net.Rounds() - roundsBefore
		rec.TopologyWrites = live.Writes() - writesBefore
		if !net.Silent() {
			return c, fmt.Errorf("cert: burst %d did not re-stabilize within %d windows", b, cfg.MaxWindows)
		}
		if err := runtime.CheckSilentStable(net); err != nil {
			return c, fmt.Errorf("cert: burst %d: %w", b, err)
		}

		// Validate the repaired tree, flush the cohort, measure service.
		tree2, err := a.ExtractTree(net)
		if err != nil {
			return c, fmt.Errorf("cert: burst %d repaired configuration: %w", b, err)
		}
		if !live.Labeling().Complete() {
			return c, fmt.Errorf("cert: burst %d: labeling incomplete after re-stabilization: %d labeled", b, live.Labeling().Covered())
		}
		rec.TreeHeight, rec.TreeMaxDegree = trees.NewIndex(tree2).Height(), tree2.MaxDegree()
		flight.Flush(live.Router())
		fs := flight.Stats()
		rec.Delivered = fs.Delivered()
		rec.DuringRepair = fs.DeliveredDuring
		rec.Looped, rec.Dropped, rec.StallWindows = fs.Looped, fs.Dropped, fs.StallWindows
		rec.RegisterBits = net.MaxRegisterBits()

		post, err := routing.Drive(live.Router(), routing.UniformPairs(nodes, cfg.TrafficBatch, rng), routing.DriveOptions{})
		if err != nil {
			return c, err
		}
		rec.PostStretch = post.MeanStretch
		rec.PostDelivery = post.DeliveryRate()

		c.Bursts = append(c.Bursts, rec)
		c.Worst.RecoveryMoves = max(c.Worst.RecoveryMoves, rec.RecoveryMoves)
		c.Worst.RecoveryRounds = max(c.Worst.RecoveryRounds, rec.RecoveryRounds)
		c.Worst.Windows = max(c.Worst.Windows, rec.Windows)
		c.Worst.RegisterBits = max(c.Worst.RegisterBits, rec.RegisterBits)
		c.Worst.Dropped = max(c.Worst.Dropped, rec.Dropped)
		if rec.PostStretch > c.Worst.Stretch {
			c.Worst.Stretch = rec.PostStretch
		}
		if rec.PostDelivery < c.Worst.MinDelivery {
			c.Worst.MinDelivery = rec.PostDelivery
		}
		logf("burst %d: %d moves %d rounds %d windows, %d/%d delivered, stretch %.3f",
			b, rec.RecoveryMoves, rec.RecoveryRounds, rec.Windows, rec.Delivered, fs.Sent, rec.PostStretch)
	}

	c.FinalSilent = net.Silent()
	if t, err := a.ExtractTree(net); err == nil {
		if asg, err2 := switching.ToAssignment(net); err2 == nil {
			c.FinalSpecValid = t.IsSpanningTreeOf(g) && asg.Verify(g) == nil
		}
	}
	return c, nil
}
