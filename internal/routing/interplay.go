package routing

import (
	"fmt"
	"math/rand"

	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// InterplayConfig parameterizes one fault-interplay run. Zero values
// take the documented defaults.
type InterplayConfig struct {
	// Substrate is the construction carrying the traffic (the zero value
	// is the spanning substrate).
	Substrate Algo
	// Faults is the number of registers corrupted mid-traffic (default 3).
	Faults int
	// InFlight is the number of packets in flight when the faults hit
	// (default 64).
	InFlight int
	// BatchPackets sizes the pre- and post-stabilization measurement
	// batches (default 256).
	BatchPackets int
	// Seed drives all randomness (graph-independent); the daemon is a
	// random-subset one seeded with Seed+1.
	Seed int64
}

// interplayMovesPerWindow is the repair budget between routing windows.
const interplayMovesPerWindow = 50

func (c *InterplayConfig) fill() {
	if c.Faults == 0 {
		c.Faults = 3
	}
	if c.InFlight == 0 {
		c.InFlight = 64
	}
	if c.BatchPackets == 0 {
		c.BatchPackets = 256
	}
}

// InFlightStats classifies the packets that were in flight when the
// faults hit.
type InFlightStats struct {
	Sent int
	// DeliveredDuring were delivered while the tree was still repairing;
	// DeliveredAfter only once it had re-stabilized and been relabeled.
	DeliveredDuring int
	DeliveredAfter  int
	// Looped revisited at least one node (delivered or not).
	Looped int
	// Dropped were lost to loops or TTL exhaustion.
	Dropped int
	// StallWindows totals the windows packets spent unable to progress.
	StallWindows int
}

// Delivered is the total over both phases.
func (s InFlightStats) Delivered() int { return s.DeliveredDuring + s.DeliveredAfter }

// InterplayReport is the outcome of one fault-interplay run.
type InterplayReport struct {
	Substrate string
	N, M      int

	// Pre is the traffic measurement over the freshly stabilized tree.
	Pre Stats
	// InFlight classifies the packets caught by the corruption.
	InFlight InFlightStats
	// Post is the traffic measurement after re-stabilization.
	Post Stats

	// Restabilized reports whether silence was re-reached.
	Restabilized bool
	// ReconvergeMoves/Windows: repair cost while traffic was in flight.
	ReconvergeMoves int
	Windows         int

	// Tree shape before corruption and after repair.
	PreHeight, PostHeight       int
	PreMaxDegree, PostMaxDegree int
}

// RunInterplay executes the serving episode on g: bring the substrate
// up, attach the rig and measure a traffic batch, then run one
// Live.Burst whose fault corrupts registers under live traffic. The
// rig's state listener is what keeps the router current, exercising the
// register-write notification path end to end.
func RunInterplay(g *graph.Graph, cfg InterplayConfig) (*InterplayReport, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sched := runtime.RandomSubset(rand.New(rand.NewSource(cfg.Seed + 1)))
	rep := &InterplayReport{Substrate: cfg.Substrate.String(), N: g.N(), M: g.M()}

	net, tree, err := BringUp(g, cfg.Substrate, sched, BringUpMoves, rng,
		func(g *graph.Graph) (*trees.Tree, error) {
			t, _, err := core.RunDistributed(g, cfg.Substrate.Task(), core.EngineOptions{Rng: rng, Scheduler: sched})
			return t, err
		})
	if err != nil {
		return nil, err
	}
	rep.PreHeight, rep.PreMaxDegree = trees.NewIndex(tree).Height(), tree.MaxDegree()

	live := NewLive(net)
	rep.Pre, err = Drive(live.Router(), UniformPairs(g.Nodes(), cfg.BatchPackets, rng), DriveOptions{})
	if err != nil {
		return nil, err
	}

	// Launch the in-flight packets, let the faults hit, repair under
	// traffic, and measure the recovered service.
	b, err := live.Burst(cfg.Substrate, sched, rng, cfg.InFlight, interplayMovesPerWindow, cfg.BatchPackets,
		func() error { runtime.Corrupt(net, cfg.Faults, rng); return nil })
	rep.Windows, rep.ReconvergeMoves = b.Windows, b.Moves
	rep.InFlight, rep.Post = b.Cohort, b.Post
	rep.Restabilized = net.Silent()
	if b.Tree != nil {
		rep.PostHeight, rep.PostMaxDegree = trees.NewIndex(b.Tree).Height(), b.Tree.MaxDegree()
	}
	if err != nil {
		return rep, fmt.Errorf("routing: %s substrate: %w", rep.Substrate, err)
	}
	return rep, nil
}
