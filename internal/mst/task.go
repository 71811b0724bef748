package mst

import (
	"fmt"

	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

// Task packages MST construction for the PLS-guided engines: the
// instantiation of Algorithm 2 (a PLS-guided version of Borůvka's
// algorithm).
//
// Detection uses the paper's label-based potential (Trace.Potential);
// the engine's strict-decrease certificate is the weight-rank surplus,
// which provably drops at every red-rule swap. Both vanish exactly on
// the MST.
type Task struct{}

var _ core.Task = Task{}

// Name implements core.Task.
func (Task) Name() string { return "mst" }

// Value implements core.Task: the weight-rank surplus over the MST.
func (Task) Value(g *graph.Graph, t *trees.Tree) (int, error) {
	return WeightRankSurplus(t, g)
}

// MaxValue implements core.Task: the surplus is at most n·m rank units.
func (Task) MaxValue(g *graph.Graph) int { return g.N() * g.M() }

// Improve implements core.Task with one Borůvka trace per step. The
// labels are the trace's, charged their wave construction (Section VI:
// "standard convergecast and broadcast operations... in poly(n) rounds,
// using O(log n) bits" per level, Θ(log² n) total). The improvement is
// the red-rule step of Algorithm 2: let x be a node with φ_x = i < k; e
// is the minimum-weight edge of G leaving F_{i+1}(x), and f the
// maximum-weight tree edge on the fundamental cycle of T + e. Discovery
// costs one convergecast and one broadcast over the tree plus one
// relaxation along the cycle.
func (Task) Improve(g *graph.Graph, t *trees.Tree) (core.LabelInfo, []core.Swap, int, bool, error) {
	tr, err := ComputeTrace(g, t)
	if err != nil {
		return core.LabelInfo{}, nil, 0, false, err
	}
	info := core.LabelInfo{
		MaxBits: tr.MaxLabelBits(g),
		Rounds:  tr.ConstructionRounds(t),
	}
	height := 0
	for _, d := range t.Depths() {
		if d > height {
			height = d
		}
	}
	x, i, found := tr.Violation()
	if !found {
		return info, nil, 2 * (height + 1), false, nil
	}
	// e = min-weight outgoing edge of F_{i+1}(x) in G.
	rep := tr.FragmentAt(x, i+1)
	e, ok := tr.MinOutgoing(rep, i+1)
	if !ok {
		return info, nil, 0, false, fmt.Errorf("mst: violated fragment %d has no outgoing edge", rep)
	}
	if t.HasEdge(e.U, e.V) {
		return info, nil, 0, false, fmt.Errorf("mst: improvement edge %v is already a tree edge", e)
	}
	// f = max-weight tree edge on the fundamental cycle of T + e.
	var f graph.Edge
	haveF := false
	for _, ce := range t.CycleEdges(e) {
		w, ok := g.EdgeWeight(ce.U, ce.V)
		if !ok {
			return info, nil, 0, false, fmt.Errorf("mst: cycle edge %v not in graph", ce)
		}
		ce.W = w
		if !haveF || lighter(f, ce) {
			f, haveF = ce, true
		}
	}
	if !haveF {
		return info, nil, 0, false, fmt.Errorf("mst: empty fundamental cycle for %v", e)
	}
	if f.W <= e.W {
		return info, nil, 0, false, fmt.Errorf("mst: red rule degenerate: max cycle edge %v not heavier than %v", f, e)
	}
	cycleLen := len(t.FundamentalCycle(e))
	rounds := 2*(height+1) + cycleLen
	return info, []core.Swap{{Add: e, Remove: f}}, rounds, true, nil
}

// PaperPotential exposes the paper's φ(T) = kn − Σ φ_x for experiments.
func PaperPotential(g *graph.Graph, t *trees.Tree) (int, error) {
	tr, err := ComputeTrace(g, t)
	if err != nil {
		return 0, err
	}
	return tr.Potential(), nil
}
