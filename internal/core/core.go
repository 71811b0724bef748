// Package core implements the paper's primary contribution: the
// PLS-guided spanning tree construction framework (Algorithm 1 for
// single-swap improvements, Section III, and Algorithm 3 for well-nested
// multi-swap improvements, Section VII).
//
// A constrained spanning tree family F is described to the framework by a
// potential function φ with φ(T) ≥ 0 and φ(T) = 0 ⇔ T ∈ F(G), together
// with an improvement finder. φ is *cyclical-decreasing* when a single
// fundamental-cycle swap T + e − f can always lower it (Section III), and
// *nest-decreasing* when a well-nested sequence of swaps can (Section
// VII). The framework then provides:
//
//   - a sequential reference engine (the literal Algorithm 1/3 loop),
//     used as ground truth and for the φ-monotonicity experiments; and
//   - a distributed engine executing the same loop on the state-model
//     runtime: the substrate of internal/switching stabilizes a spanning
//     tree from arbitrary register contents, task labels are installed
//     and charged their construction rounds (t_label), improvements are
//     found and charged their discovery rounds (t_find), and every swap
//     runs as a chain of local switches through the loop-free malleable
//     protocol of Section IV, monitored for loop-freedom throughout.
//
// Round accounting follows Lemma 3.1/7.1: the total is the sum of the
// substrate rounds, per-iteration label and find rounds, and the actual
// runtime rounds consumed by the switch protocol.
package core

import (
	"fmt"
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// Swap is one edge exchange T ← T + Add − Remove, with Add a non-tree
// edge and Remove a tree edge on the fundamental cycle of T + Add.
type Swap struct {
	Add    graph.Edge
	Remove graph.Edge
}

// String renders the swap.
func (s Swap) String() string {
	return fmt.Sprintf("+{%d,%d} -{%d,%d}", s.Add.U, s.Add.V, s.Remove.U, s.Remove.V)
}

// LabelInfo reports the cost of installing a task's labels on the
// current tree in a silent self-stabilizing way.
type LabelInfo struct {
	// MaxBits is the largest per-node label in bits (s_label).
	MaxBits int
	// Rounds is the number of rounds charged for the construction
	// (t_label).
	Rounds int
}

// Task describes a constrained spanning tree family to the framework.
type Task interface {
	// Name identifies the task.
	Name() string
	// Value returns φ(T): non-negative, zero exactly on F(G).
	Value(g *graph.Graph, t *trees.Tree) (int, error)
	// MaxValue returns φ_max for an n-node instance (the iteration bound
	// of Lemma 3.1/7.1).
	MaxValue(g *graph.Graph) int
	// Improve is one improvement step's work on the tree: it
	// computes/refreshes the task's labels and reports their cost, then
	// returns a well-nested sequence of swaps strictly lowering φ (a
	// single swap for cyclical-decreasing families) with the rounds
	// charged for the distributed discovery (t_find). ok is false when
	// φ(T) = 0. Labels and search read the same structure (a Borůvka
	// trace, an FR marking), so one call builds it once.
	// Implementations emulate the convergecast and broadcast waves of
	// the paper and charge rounds accordingly.
	Improve(g *graph.Graph, t *trees.Tree) (info LabelInfo, swaps []Swap, findRounds int, ok bool, err error)
}

// Trace records one framework execution.
type Trace struct {
	// Potentials is the φ value before each iteration, ending with 0.
	Potentials []int
	// Improvements is the number of improvement iterations executed.
	Improvements int
	// Rounds is the total accounted rounds.
	Rounds int
	// Moves is the total state-model moves of the runtime executions
	// (distributed engine only).
	Moves int
	// MaxLabelBits is the largest task label seen (s_label).
	MaxLabelBits int
	// MaxRegisterBits is the largest substrate/switch register seen
	// (distributed engine only).
	MaxRegisterBits int
}

// RunSequential executes the literal Algorithm 1/3 loop on a tree: while
// φ(T) ≠ 0, apply an improving well-nested swap sequence. It verifies
// strict φ decrease at every iteration and the φ_max iteration bound.
func RunSequential(g *graph.Graph, t0 *trees.Tree, task Task) (*trees.Tree, Trace, error) {
	t := t0.Clone()
	var trace Trace
	phi, err := task.Value(g, t)
	if err != nil {
		return nil, trace, fmt.Errorf("core: initial potential: %w", err)
	}
	maxIter := task.MaxValue(g) + 1
	for iter := 0; ; iter++ {
		trace.Potentials = append(trace.Potentials, phi)
		if phi == 0 {
			break
		}
		if iter >= maxIter {
			return nil, trace, fmt.Errorf("core: %s exceeded φ_max = %d iterations", task.Name(), maxIter)
		}
		_, swaps, _, ok, err := task.Improve(g, t)
		if err != nil {
			return nil, trace, fmt.Errorf("core: improvement step: %w", err)
		}
		if !ok || len(swaps) == 0 {
			return nil, trace, fmt.Errorf("core: %s has φ = %d > 0 but no improvement", task.Name(), phi)
		}
		t2, err := ApplyNest(t, swaps)
		if err != nil {
			return nil, trace, fmt.Errorf("core: applying %v: %w", swaps, err)
		}
		phi2, err := task.Value(g, t2)
		if err != nil {
			return nil, trace, fmt.Errorf("core: potential after swap: %w", err)
		}
		if phi2 >= phi {
			return nil, trace, fmt.Errorf("core: %s: φ did not decrease (%d -> %d) on %v",
				task.Name(), phi, phi2, swaps)
		}
		t, phi = t2, phi2
		trace.Improvements++
	}
	return t, trace, nil
}

// ApplyNest applies a well-nested swap sequence to a tree, validating
// each swap individually (property (b) of Section VII: each removed edge
// lies on the fundamental cycle of its added edge at application time).
func ApplyNest(t *trees.Tree, swaps []Swap) (*trees.Tree, error) {
	out := t
	for i, sw := range swaps {
		next, err := out.Swap(sw.Add, sw.Remove)
		if err != nil {
			return nil, fmt.Errorf("core: swap %d (%v): %w", i, sw, err)
		}
		out = next
	}
	return out, nil
}

// EngineOptions configures the distributed engine.
type EngineOptions struct {
	// Scheduler drives the runtime executions; defaults to the
	// adversarial unfair scheduler the paper assumes.
	Scheduler runtime.Scheduler
	// MaxMovesPerPhase caps each runtime execution (defense against
	// livelock bugs); defaults to 4,000,000.
	MaxMovesPerPhase int
	// Monitor enables the loop-freedom monitor during switch execution.
	// On by default in tests; costly for large benches.
	Monitor bool
	// Rng initializes the arbitrary starting configuration.
	Rng *rand.Rand
}

func (o *EngineOptions) fill() {
	if o.Scheduler == nil {
		o.Scheduler = runtime.AdversarialUnfair()
	}
	if o.MaxMovesPerPhase == 0 {
		o.MaxMovesPerPhase = 4_000_000
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
}

// RunDistributed executes the PLS-guided construction on the state-model
// runtime: stabilize a spanning tree from arbitrary registers, then
// iterate label → find → switch until φ = 0, executing each swap as a
// chain of local switches through the Section IV protocol. It returns
// the final tree and the full accounting trace.
func RunDistributed(g *graph.Graph, task Task, opts EngineOptions) (*trees.Tree, Trace, error) {
	opts.fill()
	var trace Trace

	net, err := runtime.NewNetwork(g, switching.Algorithm{})
	if err != nil {
		return nil, trace, fmt.Errorf("core: %w", err)
	}
	net.InitArbitrary(opts.Rng)
	silent, err := runPhase(net, opts.Scheduler, opts.MaxMovesPerPhase, &trace)
	if err != nil {
		return nil, trace, fmt.Errorf("core: substrate: %w", err)
	}
	if !silent {
		return nil, trace, fmt.Errorf("core: substrate did not stabilize within %d moves", opts.MaxMovesPerPhase)
	}

	if opts.Monitor {
		net.AddMonitor(switching.LoopFreeMonitor())
	}

	t, err := switching.ExtractTree(net)
	if err != nil {
		return nil, trace, fmt.Errorf("core: %w", err)
	}

	phi, err := task.Value(g, t)
	if err != nil {
		return nil, trace, fmt.Errorf("core: initial potential: %w", err)
	}
	maxIter := task.MaxValue(g) + 1
	for iter := 0; ; iter++ {
		trace.Potentials = append(trace.Potentials, phi)
		if phi == 0 {
			break
		}
		if iter >= maxIter {
			return nil, trace, fmt.Errorf("core: %s exceeded φ_max = %d iterations", task.Name(), maxIter)
		}
		info, swaps, findRounds, ok, err := task.Improve(g, t)
		if err != nil {
			return nil, trace, fmt.Errorf("core: improvement step: %w", err)
		}
		trace.Rounds += info.Rounds + findRounds
		trace.MaxLabelBits = maxInt(trace.MaxLabelBits, info.MaxBits)
		if !ok || len(swaps) == 0 {
			return nil, trace, fmt.Errorf("core: %s has φ = %d > 0 but no improvement", task.Name(), phi)
		}

		for _, sw := range swaps {
			t2, err := ExecuteSwap(net, t, sw, opts.Scheduler, opts.MaxMovesPerPhase, &trace)
			if err != nil {
				return nil, trace, fmt.Errorf("core: executing %v: %w", sw, err)
			}
			t = t2
		}

		phi2, err := task.Value(g, t)
		if err != nil {
			return nil, trace, fmt.Errorf("core: potential after swap: %w", err)
		}
		if phi2 >= phi {
			return nil, trace, fmt.Errorf("core: %s: φ did not decrease (%d -> %d)", task.Name(), phi, phi2)
		}
		phi = phi2
		trace.Improvements++
	}

	// Final configuration must be silent and carry full labels.
	if !net.Silent() {
		return nil, trace, fmt.Errorf("core: final configuration not silent")
	}
	a, err := switching.ToAssignment(net)
	if err != nil {
		return nil, trace, err
	}
	if err := a.Verify(g); err != nil {
		return nil, trace, fmt.Errorf("core: final configuration rejected by verifier: %w", err)
	}
	trace.MaxRegisterBits = maxInt(trace.MaxRegisterBits, net.MaxRegisterBits())
	return t, trace, nil
}

// ExecuteSwap realizes T ← T + e − f on the live network as the chain of
// local switches of Section IV (Fig. 1(a)): with f = (a,b), b the deeper
// endpoint, and x the endpoint of e inside the subtree of b, the nodes
// x = q_0, q_1, ..., q_m = b along the tree path from x to b switch one
// after the other — q_0 onto e's other endpoint, then each q_i onto
// q_{i-1} — the last switch removing f. Every hop runs the three-phase
// prune/switch/relabel protocol to silence.
func ExecuteSwap(net *runtime.Network, t *trees.Tree, sw Swap, sched runtime.Scheduler, maxMoves int, trace *Trace) (*trees.Tree, error) {
	path, err := reversalPath(t, sw)
	if err != nil {
		return nil, err
	}
	target := otherEndpoint(sw.Add, path[0])
	for i, q := range path {
		if err := switching.InjectSwitch(net, q, target); err != nil {
			return nil, fmt.Errorf("core: hop %d: %w", i, err)
		}
		silent, err := runPhase(net, sched, maxMoves, trace)
		if err != nil {
			return nil, fmt.Errorf("core: hop %d: %w", i, err)
		}
		if !silent {
			return nil, fmt.Errorf("core: hop %d did not quiesce", i)
		}
		target = q
	}
	return switching.ExtractTree(net)
}

// runPhase runs net to silence, or for at most maxMoves further moves,
// and charges trace with this run's own rounds and moves: the network's
// Result counts are running totals since it was built.
func runPhase(net *runtime.Network, sched runtime.Scheduler, maxMoves int, trace *Trace) (bool, error) {
	moves0, rounds0 := net.Moves(), net.Rounds()
	res, err := net.Run(sched, moves0+maxMoves)
	if err != nil {
		return false, err
	}
	trace.Rounds += res.Rounds - rounds0
	trace.Moves += res.Moves - moves0
	trace.MaxRegisterBits = maxInt(trace.MaxRegisterBits, res.MaxRegisterBits)
	return res.Silent, nil
}

// reversalPath returns the nodes that change parent for the swap, in
// switching order: from the in-subtree endpoint of Add up to the deeper
// endpoint of Remove.
func reversalPath(t *trees.Tree, sw Swap) ([]graph.NodeID, error) {
	e, f := sw.Add, sw.Remove.Canonical()
	if !t.Has(e.U) || !t.Has(e.V) || t.HasEdge(e.U, e.V) {
		return nil, fmt.Errorf("core: %v is not a non-tree edge between nodes of the tree", e)
	}
	onCycle := false
	for _, ce := range t.CycleEdges(e) {
		if graph.SameEndpoints(ce, f) {
			onCycle = true
			break
		}
	}
	if !onCycle {
		return nil, fmt.Errorf("core: %v not on the fundamental cycle of %v", sw.Remove, sw.Add)
	}
	// b = deeper endpoint of f.
	b := f.U
	if t.Parent(f.V) == f.U {
		b = f.V
	} else if t.Parent(f.U) != f.V {
		return nil, fmt.Errorf("core: %v is not a tree edge", sw.Remove)
	}
	// x = endpoint of Add inside subtree(b).
	x := sw.Add.U
	if !inSubtree(t, b, x) {
		x = sw.Add.V
		if !inSubtree(t, b, x) {
			return nil, fmt.Errorf("core: neither endpoint of %v is under %d", sw.Add, b)
		}
	}
	var path []graph.NodeID
	for q := x; ; q = t.Parent(q) {
		path = append(path, q)
		if q == b {
			return path, nil
		}
		if q == t.Root() {
			return nil, fmt.Errorf("core: walked to the root without meeting %d", b)
		}
	}
}

func inSubtree(t *trees.Tree, root, v graph.NodeID) bool {
	for x := v; ; x = t.Parent(x) {
		if x == root {
			return true
		}
		if x == t.Root() {
			return root == t.Root()
		}
	}
}

func otherEndpoint(e graph.Edge, x graph.NodeID) graph.NodeID { return e.Other(x) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
