package cert

import (
	"fmt"
	"math/rand"

	"silentspan/internal/bfs"
	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/mst"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// RunStats is the cost of one certified run.
type RunStats struct {
	Moves        int
	Rounds       int
	RegisterBits int
}

// certifyDirect drives net (whose registers already hold the initial
// configuration under test) to silence under sched and checks the full
// claim set: convergence, silence stability, closure (no node
// re-enabled by a followup daemon), the algorithm's spec on the
// stabilized tree, and the register-width bound. net is reused across
// calls; move/round accounting is relative to its current counters.
func certifyDirect(a routing.Algo, g *graph.Graph, net *runtime.Network, sched runtime.Scheduler, maxMoves int) (RunStats, error) {
	moves0, rounds0 := net.Moves(), net.Rounds()
	res, err := net.Run(sched, moves0+maxMoves)
	if err != nil {
		return RunStats{}, fmt.Errorf("run: %w", err)
	}
	stats := RunStats{Moves: res.Moves - moves0, Rounds: res.Rounds - rounds0}
	if !res.Silent {
		return stats, fmt.Errorf("no silence within %d moves", maxMoves)
	}
	if err := runtime.CheckSilentStable(net); err != nil {
		return stats, fmt.Errorf("silence not stable: %w", err)
	}
	// Closure: a silent configuration must stay silent under any further
	// daemon — probe with the synchronous one (a move here means some
	// node was re-enabled with no fault injected).
	before := net.Moves()
	if _, err := net.Run(runtime.Synchronous(), before+8); err != nil {
		return stats, fmt.Errorf("closure probe: %w", err)
	}
	if net.Moves() != before {
		return stats, fmt.Errorf("closure violated: %d moves after silence", net.Moves()-before)
	}
	if err := checkSpec(a, g, net); err != nil {
		return stats, fmt.Errorf("spec: %w", err)
	}
	stats.RegisterBits = net.MaxRegisterBits()
	if bound := RegisterBitsBound(a, g); stats.RegisterBits > bound {
		return stats, fmt.Errorf("register width %d bits exceeds bound %d", stats.RegisterBits, bound)
	}
	return stats, nil
}

// checkSpec verifies a silent configuration against its task
// specification on g: the always-on algorithms keep their own spec; the
// engine-driven MST/MDST are held by the switching protocol, whose
// Lemma 4.1 spec is the contract their (possibly churned) tree must
// satisfy.
func checkSpec(a routing.Algo, g *graph.Graph, net *runtime.Network) error {
	if a == routing.AlgoSpanning {
		return checkSpanningSpec(g, net)
	}
	return checkSwitchingSpec(g, net, a == routing.AlgoBFS)
}

// checkSpanningSpec: the substrate must stabilize to the BFS spanning
// tree rooted at the minimum identity, with exact distances.
func checkSpanningSpec(g *graph.Graph, net *runtime.Network) error {
	t, err := spanning.ExtractTree(net)
	if err != nil {
		return err
	}
	root := g.MinID()
	if t.Root() != root {
		return fmt.Errorf("root %d, want minimum identity %d", t.Root(), root)
	}
	dist, err := g.BFSDistances(root)
	if err != nil {
		return err
	}
	for _, v := range g.Nodes() {
		s, ok := net.State(v).(spanning.State)
		if !ok {
			return fmt.Errorf("node %d holds foreign state", v)
		}
		if s.Root != root {
			return fmt.Errorf("node %d claims root %d, want %d", v, s.Root, root)
		}
		if s.Dist != dist[v] {
			return fmt.Errorf("node %d claims distance %d, want %d", v, s.Dist, dist[v])
		}
		if d := t.Depth(v); d != dist[v] {
			return fmt.Errorf("node %d has tree depth %d, want BFS distance %d", v, d, dist[v])
		}
	}
	return nil
}

// checkSwitchingSpec: the parent pointers form a spanning tree rooted
// at the minimum identity, every control field is idle, the malleable
// labels (d, s) are present and exact, and the Lemma 4.1 verifier
// accepts. With wantBFS (the PLS-guided BFS algorithm) the tree must
// additionally be a BFS tree: depths equal graph distances.
func checkSwitchingSpec(g *graph.Graph, net *runtime.Network, wantBFS bool) error {
	t, err := switching.ExtractTree(net, switching.RegOf)
	if err != nil {
		return err
	}
	if t.Root() != g.MinID() {
		return fmt.Errorf("root %d, want minimum identity %d", t.Root(), g.MinID())
	}
	a, err := switching.ToAssignment(net, switching.RegOf)
	if err != nil {
		return err
	}
	if err := a.Verify(g); err != nil {
		return fmt.Errorf("verifier rejects silent configuration: %w", err)
	}
	depths := t.Depths()
	sizes := t.SubtreeSizes()
	for _, v := range g.Nodes() {
		s, ok := switching.RegOf(net.State(v))
		if !ok {
			return fmt.Errorf("node %d holds foreign state", v)
		}
		if !s.Idle() {
			return fmt.Errorf("node %d silent but not idle: %v", v, s)
		}
		if !s.HasD || s.D != depths[v] {
			return fmt.Errorf("node %d distance label %v/%d, want %d", v, s.HasD, s.D, depths[v])
		}
		if !s.HasS || s.S != sizes[v] {
			return fmt.Errorf("node %d size label %v/%d, want %d", v, s.HasS, s.S, sizes[v])
		}
	}
	if wantBFS {
		if phi, err := (bfs.Task{}).Value(g, t); err != nil {
			return err
		} else if phi != 0 {
			return fmt.Errorf("BFS potential φ = %d after silence, want 0", phi)
		}
	}
	return nil
}

// certifyEngine runs the PLS-guided distributed engine for MST or MDST
// under the given daemon from an arbitrary initial configuration, with
// the loop-freedom monitor armed for every intermediate step, then
// checks the final tree's spec, the closure of the final configuration,
// and the register-width bound.
func certifyEngine(a routing.Algo, g *graph.Graph, spec SchedulerSpec, seed int64, maxMoves int) (RunStats, error) {
	t, trace, err := core.RunDistributed(g, a.Task(), core.EngineOptions{
		Scheduler:        spec.New(seed),
		Rng:              rand.New(rand.NewSource(seed)),
		MaxMovesPerPhase: maxMoves,
		Monitor:          true,
	})
	stats := RunStats{Moves: trace.Moves, Rounds: trace.Rounds, RegisterBits: trace.MaxRegisterBits}
	if err != nil {
		return stats, fmt.Errorf("engine: %w", err)
	}
	if err := checkTreeSpec(a, g, t); err != nil {
		return stats, fmt.Errorf("spec: %w", err)
	}
	// Closure: the legitimate configuration for the final tree must be
	// silent for the switching protocol (nothing re-enables).
	net, err := runtime.NewNetwork(g, switching.Algorithm{})
	if err != nil {
		return stats, err
	}
	if err := switching.InitFromTree(net, t); err != nil {
		return stats, err
	}
	if !net.Silent() {
		return stats, fmt.Errorf("closure violated: legitimate configuration for final tree not silent")
	}
	if bound := RegisterBitsBound(a, g); stats.RegisterBits > bound {
		return stats, fmt.Errorf("register width %d bits exceeds bound %d", stats.RegisterBits, bound)
	}
	return stats, nil
}

// checkTreeSpec verifies the constrained-tree property of the final
// tree: exact minimality for MST (against Kruskal), the FR-tree
// property for MDST — plus, when the instance is small enough for the
// brute-force ground truth, the OPT+1 degree guarantee.
func checkTreeSpec(a routing.Algo, g *graph.Graph, t *trees.Tree) error {
	switch a {
	case routing.AlgoMST:
		ok, err := mst.IsMST(t, g)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("final tree is not a minimum spanning tree")
		}
	case routing.AlgoMDST:
		fr, err := mdst.IsFRTree(g, t)
		if err != nil {
			return err
		}
		if !fr {
			return fmt.Errorf("final tree is not an FR-tree")
		}
		if opt, err := mdst.OptimalDegree(g); err == nil {
			if t.MaxDegree() > opt+1 {
				return fmt.Errorf("degree %d exceeds OPT+1 = %d", t.MaxDegree(), opt+1)
			}
		}
	default:
		return fmt.Errorf("no tree spec for %v", a)
	}
	return nil
}
