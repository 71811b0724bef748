// Package bfs implements the paper's worked example of the PLS-guided
// framework (Section III): silent self-stabilizing BFS spanning tree
// construction with space-optimal O(log n)-bit registers.
//
// The proof-labeling scheme is the distance labeling: node u rejects iff
// some graph neighbor v has d(v) < d(u) − 1. The potential function is
//
//	φ(T) = Σ_u |d_T(u) − dist_G(u, r)| = Σ_u (depth_T(u) − dist_G(u, r)),
//
// non-negative, zero exactly on BFS trees, and cyclical-decreasing: for a
// rejecting node u with witness v, swapping e = {u,v} against
// f = {u, p(u)} lowers the depth of u's whole subtree, hence φ.
//
// Two implementations are provided:
//
//   - Algorithm: the fully integrated always-on rule system — the
//     switching rules of Section IV extended by a single improvement
//     rule ("request a switch onto a neighbor whose distance is smaller
//     than mine minus one"), so detection, the loop-free switch, and the
//     relabeling all happen inside one self-stabilizing transition
//     function;
//   - Task: the same family packaged for the core framework engines
//     (used by the φ-monotonicity and round-accounting experiments).
package bfs

import (
	"fmt"
	"math/rand"

	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// Algorithm is the always-on silent self-stabilizing BFS construction.
// Registers are switching.State values: the malleable (root, parent,
// d, s) labels plus the switch controls — O(log n) bits.
type Algorithm struct{}

var _ runtime.Algorithm = Algorithm{}

// Name implements runtime.Algorithm.
func (Algorithm) Name() string { return "pls-guided-bfs" }

// Register declares the BFS register: switching's.
func (Algorithm) Register() *runtime.Schema { return switching.Schema }

// Step implements runtime.Algorithm: switching rules first (construction,
// sanitization, the three-phase switch, label maintenance); if none is
// enabled and the node is quiet, the BFS improvement rule may request a
// switch onto a strictly closer neighbor. A node neither enables gets
// v.Self back, not a fresh box of the same register: a disabled δ
// allocates nothing.
func (Algorithm) Step(v runtime.View) runtime.State {
	s, ok := switching.RegOf(v.Self)
	if !ok {
		return switching.SelfRoot(v.ID)
	}
	if next := switching.StepReg(s, v); next != s {
		return next
	}
	if target, ok := improvement(s, &v); ok {
		s.Sw = switching.SwReq
		s.SwTarget = target
		return s
	}
	return v.Self
}

// improvement is the PLS-guided BFS rule: node u with a neighbor v such
// that d(v) + 1 < d(u) requests the switch e = {u,v}, f = {u,p(u)}. It
// fires only in a locally quiet neighborhood, so requests are based on
// settled labels.
func improvement(s switching.State, v *runtime.View) (graph.NodeID, bool) {
	if !s.Idle() || !s.HasD || !s.HasS || s.Parent == trees.None {
		return trees.None, false
	}
	best := trees.None
	bestD := s.D - 1 // require strict improvement: d(target)+1 < d(u)
	for j, u := range v.Neighbors {
		p, ok := switching.RegOf(v.PeerAt(j))
		if !ok {
			continue
		}
		if !p.Idle() || !p.HasD || !p.HasS || p.Root != s.Root {
			continue
		}
		if p.Parent == v.ID {
			// u is this node's own child: its smaller distance can only
			// be a stale value (a consistent child is deeper). Adopting
			// it would create a cycle; the switch guards would abort the
			// request, and re-requesting forever would livelock under an
			// unfair scheduler that starves the child's distance repair.
			continue
		}
		if p.D+1 < s.D && p.D+1 <= bestD {
			best, bestD = u, p.D+1
		}
	}
	if best == trees.None {
		return trees.None, false
	}
	return best, true
}

// ArbitraryState implements runtime.Algorithm.
func (Algorithm) ArbitraryState(rng *rand.Rand, v runtime.View) runtime.State {
	return switching.Algorithm{}.ArbitraryState(rng, v)
}

// Task packages BFS for the core framework engines.
type Task struct{}

var _ core.Task = Task{}

// Name implements core.Task.
func (Task) Name() string { return "bfs" }

// Value implements core.Task: φ(T) = Σ_u (depth_T(u) − dist_G(u, r)).
func (Task) Value(g *graph.Graph, t *trees.Tree) (int, error) {
	dist, err := g.BFSDistances(t.Root())
	if err != nil {
		return 0, fmt.Errorf("bfs: %w", err)
	}
	depth := t.Depths()
	phi := 0
	for v, d := range depth {
		diff := d - dist[v]
		if diff < 0 {
			return 0, fmt.Errorf("bfs: node %d has depth %d below graph distance %d", v, d, dist[v])
		}
		phi += diff
	}
	return phi, nil
}

// MaxValue implements core.Task: φ_max = O(n²) (each of n nodes can be at
// most n−1 deeper than its graph distance).
func (Task) MaxValue(g *graph.Graph) int { return g.N() * g.N() }

// Improve implements core.Task. The BFS labels are the distance labels
// the substrate already maintains: one top-down wave of depth
// assignments, so t_label is the tree height and s_label is one
// O(log n)-bit integer. The improvement picks the rejecting node with
// the largest depth excess (the root's selection among candidates, as
// in the paper's example), and returns the single swap e = {u,v},
// f = {u,p(u)}. Discovery is one convergecast plus one broadcast:
// 2·height rounds.
func (Task) Improve(g *graph.Graph, t *trees.Tree) (core.LabelInfo, []core.Swap, int, bool, error) {
	depth := t.Depths()
	height := 0
	for _, d := range depth {
		if d > height {
			height = d
		}
	}
	info := core.LabelInfo{
		MaxBits: runtime.BitsForValue(g.N() - 1),
		Rounds:  height + 1,
	}
	var (
		found    bool
		bestU    graph.NodeID
		bestV    graph.NodeID
		bestGain int
	)
	for _, u := range t.Nodes() {
		if t.Parent(u) == trees.None {
			continue
		}
		for _, v := range g.Neighbors(u) {
			gain := depth[u] - (depth[v] + 1)
			if gain > bestGain {
				found, bestU, bestV, bestGain = true, u, v, gain
			}
		}
	}
	if !found {
		return info, nil, 2 * (height + 1), false, nil
	}
	sw := core.Swap{
		Add:    graph.Edge{U: bestU, V: bestV},
		Remove: graph.Edge{U: bestU, V: t.Parent(bestU)},
	}
	return info, []core.Swap{sw}, 2 * (height + 1), true, nil
}
