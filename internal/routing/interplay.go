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
	// MovesPerWindow is the stabilization budget between routing windows
	// (default 50): smaller values interleave routing and repair more
	// finely.
	MovesPerWindow int
	// StepsPerWindow is each in-flight packet's hop budget per window
	// (default 2).
	StepsPerWindow int
	// MaxWindows bounds the reconvergence loop (default 100000).
	MaxWindows int
	// StabilizeMoves caps each full stabilization (default 20,000,000).
	StabilizeMoves int
	// Seed drives all randomness (graph-independent).
	Seed int64
	// Scheduler defaults to a random-subset daemon derived from Seed.
	Scheduler runtime.Scheduler
}

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
	if c.MovesPerWindow == 0 {
		c.MovesPerWindow = 50
	}
	if c.StepsPerWindow == 0 {
		c.StepsPerWindow = 2
	}
	if c.MaxWindows == 0 {
		c.MaxWindows = 100000
	}
	if c.StabilizeMoves == 0 {
		c.StabilizeMoves = 20_000_000
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
	// TopologyWrites counts register writes observed by the state
	// listener during reconvergence (the notification hook serving
	// layers subscribe to).
	TopologyWrites int

	// Tree shape before corruption and after repair.
	PreHeight, PostHeight       int
	PreMaxDegree, PostMaxDegree int
}

// RunInterplay executes the serving episode on g: bring the substrate
// up, attach the rig and measure a traffic batch, corrupt registers
// under live traffic, reconverge — repair windows interleaved with
// routing windows over the decaying labeling — then re-measure once
// silent. The rig's listeners are what keep the router current,
// exercising the topology-change notification path end to end.
func RunInterplay(g *graph.Graph, cfg InterplayConfig) (*InterplayReport, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Scheduler == nil {
		cfg.Scheduler = runtime.RandomSubset(rand.New(rand.NewSource(cfg.Seed + 1)))
	}
	rep := &InterplayReport{Substrate: cfg.Substrate.String(), N: g.N(), M: g.M()}

	net, tree, err := BringUp(g, cfg.Substrate, cfg.Scheduler, cfg.StabilizeMoves, rng,
		func(g *graph.Graph) (*trees.Tree, error) {
			t, _, err := core.RunDistributed(g, cfg.Substrate.Task(), core.EngineOptions{Rng: rng, Scheduler: cfg.Scheduler})
			return t, err
		})
	if err != nil {
		return nil, err
	}
	rep.PreHeight, rep.PreMaxDegree = trees.NewIndex(tree).Height(), tree.MaxDegree()

	live := NewLive(net)
	nodes := g.Nodes()
	rep.Pre, err = Drive(live.Router(), UniformPairs(nodes, cfg.BatchPackets, rng), DriveOptions{})
	if err != nil {
		return nil, err
	}

	// Launch the in-flight packets, then let the faults hit.
	flight := NewFlight(UniformPairs(nodes, cfg.InFlight, rng))
	runtime.Corrupt(net, cfg.Faults, rng)

	movesBefore, writesBefore := net.Moves(), live.Writes()
	rep.Windows, err = live.Reconverge(cfg.Scheduler, cfg.MovesPerWindow, cfg.StepsPerWindow, cfg.MaxWindows, flight)
	if err != nil {
		return nil, fmt.Errorf("routing: reconvergence %w", err)
	}
	rep.ReconvergeMoves = net.Moves() - movesBefore
	rep.TopologyWrites = live.Writes() - writesBefore
	rep.InFlight = flight.Stats()
	rep.Restabilized = net.Silent()
	if !rep.Restabilized {
		return rep, fmt.Errorf("routing: %s substrate did not re-stabilize within %d windows", rep.Substrate, cfg.MaxWindows)
	}

	// Re-stabilized: validate the repaired tree, flush the remaining
	// in-flight packets, and measure the recovered service.
	tree2, err := cfg.Substrate.ExtractTree(net)
	if err != nil {
		return rep, fmt.Errorf("routing: repaired configuration: %w", err)
	}
	if !live.Labeling().Complete() {
		return rep, fmt.Errorf("routing: labeling incomplete after re-stabilization: %d labeled", live.Labeling().Covered())
	}
	rep.PostHeight, rep.PostMaxDegree = trees.NewIndex(tree2).Height(), tree2.MaxDegree()
	flight.Flush(live.Router())
	rep.InFlight = flight.Stats()

	rep.Post, err = Drive(live.Router(), UniformPairs(nodes, cfg.BatchPackets, rng), DriveOptions{})
	if err != nil {
		return rep, err
	}
	return rep, nil
}
