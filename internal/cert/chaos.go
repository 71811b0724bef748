package cert

import (
	"fmt"
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
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
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
}

// The shape of one chaos burst: chaosCorrupt registers are overwritten
// with arbitrary states, chaosWipes registers are erased outright and
// chaosReweighs edges get fresh random weights, while a cohort of
// chaosInFlight packets launched right before it keeps flying over the
// decaying labeling. Repair runs chaosMovesPerWindow moves between
// routing windows, and chaosBatch packets measure the recovered stretch.
const (
	chaosCorrupt        = 8
	chaosWipes          = 2
	chaosReweighs       = 4
	chaosInFlight       = 64
	chaosMovesPerWindow = 200
	chaosBatch          = 256
)

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
// live-router rig, then repeat fault bursts, each one Live.Burst whose
// fault is register corruption, register wipes and edge-weight churn,
// repaired under the configured daemon. Worst cases across all bursts
// are distilled into the certificate.
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
	net, _, err := routing.BringUp(g, a, sched, routing.BringUpMoves, rng, referenceTree(a))
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
		// The burst: corruption, wipes, weight churn.
		br, err := live.Burst(a, sched, rng, chaosInFlight, chaosMovesPerWindow, chaosBatch, func() error {
			rec.Corrupted = len(runtime.Corrupt(net, chaosCorrupt, rng))
			for i := 0; i < chaosWipes; i++ {
				net.SetState(nodes[rng.Intn(len(nodes))], nil)
				rec.Wiped++
			}
			for i := 0; i < chaosReweighs; i++ {
				e := edges[rng.Intn(len(edges))]
				if err := net.PerturbEdgeWeight(e.U, e.V, graph.Weight(rng.Int63n(maxWeight)+1)); err != nil {
					return err
				}
				rec.Reweighed++
			}
			return nil
		})
		if err != nil {
			return c, fmt.Errorf("cert: burst %d: %w", b, err)
		}
		rec.RecoveryMoves, rec.RecoveryRounds, rec.Windows = br.Moves, br.Rounds, br.Windows
		rec.TreeHeight, rec.TreeMaxDegree = trees.NewIndex(br.Tree).Height(), br.Tree.MaxDegree()
		rec.Delivered, rec.DuringRepair = br.Cohort.Delivered(), br.Cohort.DeliveredDuring
		rec.Looped, rec.Dropped, rec.StallWindows = br.Cohort.Looped, br.Cohort.Dropped, br.Cohort.StallWindows
		rec.RegisterBits = net.MaxRegisterBits()
		rec.PostStretch, rec.PostDelivery = br.Post.MeanStretch, br.Post.DeliveryRate()

		c.Bursts = append(c.Bursts, rec)
		c.Worst.RecoveryMoves = max(c.Worst.RecoveryMoves, rec.RecoveryMoves)
		c.Worst.RecoveryRounds = max(c.Worst.RecoveryRounds, rec.RecoveryRounds)
		c.Worst.Windows = max(c.Worst.Windows, rec.Windows)
		c.Worst.RegisterBits = max(c.Worst.RegisterBits, rec.RegisterBits)
		c.Worst.Dropped = max(c.Worst.Dropped, rec.Dropped)
		c.Worst.Stretch = max(c.Worst.Stretch, rec.PostStretch)
		c.Worst.MinDelivery = min(c.Worst.MinDelivery, rec.PostDelivery)
		logf("burst %d: %d moves %d rounds %d windows, %d/%d delivered, stretch %.3f",
			b, rec.RecoveryMoves, rec.RecoveryRounds, rec.Windows, rec.Delivered, br.Cohort.Sent, rec.PostStretch)
	}

	c.FinalSilent = net.Silent()
	c.FinalSpecValid = checkSpec(a, g, net) == nil
	return c, nil
}
