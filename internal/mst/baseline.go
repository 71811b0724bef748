package mst

import (
	"fmt"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// BaselineResult summarizes a run of the non-silent distributed Borůvka
// baseline, for the comparison column of experiment E4. The paper
// contrasts its silent construction with compact non-silent MST
// algorithms ([17], [51]): the baseline here builds the MST from scratch
// in O(log n) phases of tree-wide waves, uses O(log n)-bit registers,
// but is *not* silent — it cannot certify its output locally, so after
// stabilizing it would have to keep running (or re-run) to detect
// faults, and a verifier has nothing to check.
type BaselineResult struct {
	Tree *trees.Tree
	// Rounds charges each phase with the relaxation waves it needs:
	// fragment-internal min-ID and best-edge broadcasts.
	Rounds int
	// RegisterBits is the per-node working memory of the baseline.
	RegisterBits int
	// Phases is the number of Borůvka phases executed (≤ ceil(log2 n)).
	Phases int
}

// DistributedBoruvka simulates the synchronous distributed Borůvka
// construction: each phase, every fragment finds its minimum outgoing
// graph edge by a convergecast/broadcast inside the fragment, and the
// fragments merge. Rounds are charged per phase as two waves across the
// largest current fragment.
func DistributedBoruvka(g *graph.Graph, root graph.NodeID) (*BaselineResult, error) {
	if !g.HasNode(root) {
		return nil, fmt.Errorf("mst: unknown root %d", root)
	}
	nodes := g.Nodes()
	uf := graph.NewUnionFind(nodes)
	var merged []graph.Edge
	res := &BaselineResult{}
	for uf.Sets() > 1 {
		res.Phases++
		if res.Phases > g.N() {
			return nil, fmt.Errorf("mst: baseline did not converge")
		}
		// Minimum outgoing edge per fragment.
		chosen := make(map[graph.NodeID]graph.Edge)
		has := make(map[graph.NodeID]bool)
		for _, e := range g.Edges() {
			fu, fv := uf.Find(e.U), uf.Find(e.V)
			if fu == fv {
				continue
			}
			for _, f := range []graph.NodeID{fu, fv} {
				if !has[f] || lighter(e, chosen[f]) {
					chosen[f], has[f] = e, true
				}
			}
		}
		// Charge two waves across the largest fragment (convergecast of
		// candidate edges, broadcast of the winner).
		sizes := make(map[graph.NodeID]int)
		maxSize := 1
		for _, v := range nodes {
			sizes[uf.Find(v)]++
			if s := sizes[uf.Find(v)]; s > maxSize {
				maxSize = s
			}
		}
		res.Rounds += 2 * maxSize
		for _, e := range chosen {
			if uf.Union(e.U, e.V) {
				merged = append(merged, e)
			}
		}
	}
	t, err := trees.FromEdges(root, merged)
	if err != nil {
		return nil, fmt.Errorf("mst: baseline: %w", err)
	}
	// Working registers: fragment ID, phase counter, best-edge candidate
	// (two IDs and a weight): O(log n) bits.
	maxW := graph.Weight(1)
	for _, e := range g.Edges() {
		if e.W > maxW {
			maxW = e.W
		}
	}
	n := g.N()
	res.RegisterBits = runtime.BitsForValue(n) + runtime.BitsForValue(res.Phases) +
		2*runtime.BitsForValue(n) + runtime.BitsForValue(int(maxW))
	res.Tree = t
	return res, nil
}
