package routing

import (
	"fmt"
	"math/rand"

	"silentspan/internal/bfs"
	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/mst"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// Algo names one of the five constructions — the tree a serving episode
// routes over and the campaigns certify. It is the repository's one
// algorithm registry: name, always-on rule system, engine task and tree
// extractor all hang off it.
type Algo int

// Spanning, Switching and BFS are always-on rule systems driven
// directly on the state-model runtime; MST and MDST run through the
// PLS-guided distributed engine (core.RunDistributed) and are held, once
// built, by the switching protocol.
const (
	AlgoSpanning Algo = iota
	AlgoSwitching
	AlgoBFS
	AlgoMST
	AlgoMDST
)

var algos = [...]struct {
	name string
	alg  runtime.Algorithm
	task core.Task
}{
	AlgoSpanning:  {"spanning", spanning.Algorithm{}, nil},
	AlgoSwitching: {"switching", switching.Algorithm{}, nil},
	AlgoBFS:       {"bfs", bfs.Algorithm{}, nil},
	AlgoMST:       {"mst", nil, mst.Task{}},
	AlgoMDST:      {"mdst", nil, mdst.Task{}},
}

// AllAlgos lists every algorithm, in enum order.
func AllAlgos() []Algo {
	return []Algo{AlgoSpanning, AlgoSwitching, AlgoBFS, AlgoMST, AlgoMDST}
}

// String names the algorithm.
func (a Algo) String() string {
	if a < 0 || int(a) >= len(algos) {
		return fmt.Sprintf("algo(%d)", int(a))
	}
	return algos[a].name
}

// ParseAlgo parses an algorithm name.
func ParseAlgo(name string) (Algo, error) {
	for _, a := range AllAlgos() {
		if algos[a].name == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want spanning | switching | bfs | mst | mdst)", name)
}

// Algorithm returns the always-on runtime algorithm for a, or nil for
// the engine-driven tasks (MST, MDST).
func (a Algo) Algorithm() runtime.Algorithm { return algos[a].alg }

// Task returns the engine task for MST and MDST, nil for the always-on
// algorithms.
func (a Algo) Task() core.Task { return algos[a].task }

// ExtractTree reads the parent pointers out of a network running a (or,
// for MST/MDST, the switching protocol holding their tree) and validates
// that they form a spanning tree of its graph.
func (a Algo) ExtractTree(net *runtime.Network) (*trees.Tree, error) {
	if a == AlgoSpanning {
		return spanning.ExtractTree(net)
	}
	return switching.ExtractTree(net, switching.RegOf)
}

// BringUp returns a silent network on g whose registers encode a
// stabilized tree of the given kind, and that tree — the first step of
// every serving episode. An always-on algorithm stabilizes under sched
// within maxMoves from an arbitrary configuration drawn from rng; with
// no rng there is nothing to draw, and the spanning substrate starts
// from its post-reset configuration instead (spanning.InitSelfRoot: the
// serving-scale setup, an adversarial start costs Θ(n) erosion rounds;
// the other algorithms have no such configuration and need an rng).
// MST and MDST have no always-on rule system: tree builds theirs — the
// distributed engine, or a sequential reference at campaign scale — and
// it is loaded into a switching-protocol network, the silent
// configuration the engine stabilizes to.
func BringUp(g *graph.Graph, a Algo, sched runtime.Scheduler, maxMoves int, rng *rand.Rand,
	tree func(*graph.Graph) (*trees.Tree, error)) (*runtime.Network, *trees.Tree, error) {
	alg := a.Algorithm()
	if alg == nil {
		t, err := tree(g)
		if err != nil {
			return nil, nil, err
		}
		net, err := runtime.NewNetwork(g, switching.Algorithm{})
		if err != nil {
			return nil, nil, err
		}
		if err := switching.InitFromTree(net, t); err != nil {
			return nil, nil, err
		}
		return net, t, nil
	}
	net, err := runtime.NewNetwork(g, alg)
	if err != nil {
		return nil, nil, err
	}
	if rng == nil && a == AlgoSpanning {
		spanning.InitSelfRoot(net)
	} else {
		net.InitArbitrary(rng)
	}
	res, err := net.Run(sched, maxMoves)
	if err != nil {
		return nil, nil, err
	}
	if !res.Silent {
		return nil, nil, fmt.Errorf("substrate not silent within %d moves", maxMoves)
	}
	t, err := a.ExtractTree(net)
	return net, t, err
}
