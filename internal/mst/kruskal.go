// Package mst implements the MST application of the paper's framework
// (Section VI, Corollary 6.1): labels encoding a virtual execution of
// Borůvka's algorithm on the current tree (Fig. 2), the potential
// function comparing those labels against the graph, the red-rule
// improvement step, and the packaging as a core.Task for the PLS-guided
// engines. Sequential Kruskal provides the ground truth, and a
// synchronous distributed Borůvka serves as the non-silent baseline.
package mst

import (
	"fmt"

	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

// Kruskal returns the minimum-weight spanning tree of g rooted at root.
// With pairwise distinct weights (the paper's w.l.o.g. assumption) the
// MST is unique; ties are broken by endpoint IDs for robustness anyway.
func Kruskal(g *graph.Graph, root graph.NodeID) (*trees.Tree, error) {
	if !g.HasNode(root) {
		return nil, fmt.Errorf("mst: unknown root %d", root)
	}
	uf := graph.NewUnionFind(g.Nodes())
	var forest []graph.Edge
	for _, e := range g.EdgesByWeight() {
		if uf.Union(e.U, e.V) {
			forest = append(forest, e)
		}
	}
	if uf.Sets() != 1 {
		return nil, fmt.Errorf("mst: graph not connected (%d components)", uf.Sets())
	}
	return trees.FromEdges(root, forest)
}

// IsMST reports whether t is a minimum-weight spanning tree of g, by
// weight comparison against Kruskal (unique under distinct weights).
func IsMST(t *trees.Tree, g *graph.Graph) (bool, error) {
	if !t.IsSpanningTreeOf(g) {
		return false, nil
	}
	ref, err := Kruskal(g, t.Root())
	if err != nil {
		return false, err
	}
	wt, err := t.Weight(g)
	if err != nil {
		return false, err
	}
	wr, err := ref.Weight(g)
	if err != nil {
		return false, err
	}
	return wt == wr, nil
}

// WeightRankSurplus returns the rank-based optimality gap of t: the sum
// of weight ranks of t's edges minus that of the MST. It is zero exactly
// on the MST and strictly decreases under every red-rule swap (the
// removed edge is always heavier than the added one), so the framework
// engines use it as their monotonicity certificate while the paper's
// label-based potential (Potential) drives detection.
func WeightRankSurplus(t *trees.Tree, g *graph.Graph) (int, error) {
	// Rank edges by endpoints only: tree edges do not carry weights.
	type pair struct{ u, v graph.NodeID }
	rank := make(map[pair]int, g.M())
	for i, e := range g.EdgesByWeight() {
		c := e.Canonical()
		rank[pair{c.U, c.V}] = i
	}
	ref, err := Kruskal(g, t.Root())
	if err != nil {
		return 0, err
	}
	sum := func(tr *trees.Tree) int {
		s := 0
		for _, e := range tr.Edges() {
			s += rank[pair{e.U, e.V}]
		}
		return s
	}
	surplus := sum(t) - sum(ref)
	if surplus < 0 {
		return 0, fmt.Errorf("mst: tree lighter than the MST — weights not distinct?")
	}
	return surplus, nil
}
