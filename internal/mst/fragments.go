package mst

import (
	"fmt"
	"slices"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// LevelLabel is one level of a node's Borůvka-trace label: the identity
// of the node's level-i fragment (the smallest member ID, as in the
// paper) and f_i, the lightest tree edge leaving that fragment (absent
// at the top level, where the fragment is the whole tree).
type LevelLabel struct {
	Fragment graph.NodeID
	HasEdge  bool
	Edge     graph.Edge
}

// Trace is the full labeling λ(x) = ((F_1,f_1), ..., (F_k,f_k)) of
// Section VI: the trace of a virtual execution of Borůvka's algorithm on
// the tree T, with fragment merges driven by the chosen tree edges.
type Trace struct {
	// K is the number of levels (k ≤ ceil(log2 n), Fig. 2).
	K int
	// Levels maps each node to its K level labels.
	Levels map[graph.NodeID][]LevelLabel
	// out[i] maps each level-(i+1) fragment to the minimum-weight edge of
	// G leaving it; a fragment with no outgoing edge has no entry.
	out []map[graph.NodeID]graph.Edge
}

// ComputeTrace runs the virtual Borůvka execution on T (edge weights
// taken from g) and returns the labels. Per level it also records each
// fragment's minimum-weight outgoing edge in G, one pass over g's edges,
// which is what the potential and the violation search compare against.
func ComputeTrace(g *graph.Graph, t *trees.Tree) (*Trace, error) {
	nodes := t.Nodes()
	tr := &Trace{Levels: make(map[graph.NodeID][]LevelLabel, len(nodes))}
	graphEdges := g.Edges()
	treeEdges := t.Edges()
	for i := range treeEdges {
		w, ok := g.EdgeWeight(treeEdges[i].U, treeEdges[i].V)
		if !ok {
			return nil, fmt.Errorf("mst: tree edge %v not in graph", treeEdges[i])
		}
		treeEdges[i].W = w
	}
	// frag[x] = current fragment representative (min member ID).
	frag := make(map[graph.NodeID]graph.NodeID, len(nodes))
	for _, x := range nodes {
		frag[x] = x
	}
	fragments := len(nodes)
	for level := 0; ; level++ {
		if level > len(nodes) {
			return nil, fmt.Errorf("mst: Borůvka trace did not converge")
		}
		// f(F) = lightest tree edge leaving fragment F.
		chosen := make(map[graph.NodeID]graph.Edge, fragments)
		has := make(map[graph.NodeID]bool, fragments)
		for _, e := range treeEdges {
			fu, fv := frag[e.U], frag[e.V]
			if fu == fv {
				continue
			}
			for _, f := range []graph.NodeID{fu, fv} {
				if !has[f] || lighter(e, chosen[f]) {
					chosen[f], has[f] = e, true
				}
			}
		}
		// Record this level for every node.
		for _, x := range nodes {
			f := frag[x]
			ll := LevelLabel{Fragment: f}
			if has[f] {
				ll.HasEdge, ll.Edge = true, chosen[f].Canonical()
			}
			tr.Levels[x] = append(tr.Levels[x], ll)
		}
		out := make(map[graph.NodeID]graph.Edge, fragments)
		for _, e := range graphEdges {
			fu, oku := frag[e.U]
			fv, okv := frag[e.V]
			if !oku || !okv || fu == fv {
				continue
			}
			for _, f := range []graph.NodeID{fu, fv} {
				if best, ok := out[f]; !ok || lighter(e, best) {
					out[f] = e.Canonical()
				}
			}
		}
		tr.out = append(tr.out, out)
		tr.K = level + 1
		if fragments == 1 {
			return tr, nil
		}
		// Merge along chosen edges: new representative = min member.
		uf := graph.NewUnionFind(nodes)
		for _, x := range nodes {
			// All members of a fragment are first united so min-ID
			// propagation is fragment-wide.
			uf.Union(x, frag[x])
		}
		for f, e := range chosen {
			_ = f
			uf.Union(e.U, e.V)
		}
		minOf := make(map[graph.NodeID]graph.NodeID, len(nodes))
		for _, x := range nodes {
			r := uf.Find(x)
			if cur, ok := minOf[r]; !ok || x < cur {
				minOf[r] = x
			}
		}
		newFrag := make(map[graph.NodeID]graph.NodeID, len(nodes))
		reps := map[graph.NodeID]bool{}
		for _, x := range nodes {
			newFrag[x] = minOf[uf.Find(x)]
			reps[newFrag[x]] = true
		}
		if len(reps) >= fragments {
			return nil, fmt.Errorf("mst: fragment count did not shrink (%d -> %d)", fragments, len(reps))
		}
		frag, fragments = newFrag, len(reps)
	}
}

// lighter orders edges by (weight, U, V) — the distinct-weight reduction.
func lighter(a, b graph.Edge) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	ac, bc := a.Canonical(), b.Canonical()
	if ac.U != bc.U {
		return ac.U < bc.U
	}
	return ac.V < bc.V
}

// FragmentAt returns the level-i (1-based) fragment identity of x.
func (tr *Trace) FragmentAt(x graph.NodeID, i int) graph.NodeID {
	return tr.Levels[x][i-1].Fragment
}

// NodePotential returns φ_x(T): the largest i in [0, K] such that for
// every j ≤ i, f_j(x) is the minimum-weight edge of G leaving F_j(x)
// (levels without an outgoing graph edge count as satisfied). G is the
// graph the trace was computed on.
func (tr *Trace) NodePotential(x graph.NodeID) int {
	for i := 1; i <= tr.K; i++ {
		if !tr.LevelSatisfied(x, i) {
			return i - 1
		}
	}
	return tr.K
}

// LevelSatisfied reports whether f_i(x) is the minimum-weight outgoing
// edge of F_i(x) in G (1-based level i).
func (tr *Trace) LevelSatisfied(x graph.NodeID, i int) bool {
	ll := tr.Levels[x][i-1]
	best, hasBest := tr.MinOutgoing(ll.Fragment, i)
	if !hasBest {
		return !ll.HasEdge
	}
	if !ll.HasEdge {
		return false
	}
	return ll.Edge.Canonical() == best
}

// MinOutgoing returns the minimum-weight edge of G leaving the level-i
// fragment identified by rep (1-based level), in canonical form.
func (tr *Trace) MinOutgoing(rep graph.NodeID, level int) (graph.Edge, bool) {
	e, ok := tr.out[level-1][rep]
	return e, ok
}

// Potential returns the paper's φ(T) = K·n − Σ_x φ_x(T): non-negative,
// zero iff T is the MST of G.
func (tr *Trace) Potential() int {
	phi := tr.K * len(tr.Levels)
	for x := range tr.Levels {
		phi -= tr.NodePotential(x)
	}
	return phi
}

// Violation returns a node x and level i with φ_x = i < K (a witness
// that T is not the MST), choosing the smallest (i, x); ok is false when
// every node is fully satisfied (φ = 0).
func (tr *Trace) Violation() (graph.NodeID, int, bool) {
	bestX, bestI, found := graph.NodeID(0), 0, false
	nodes := make([]graph.NodeID, 0, len(tr.Levels))
	for x := range tr.Levels {
		nodes = append(nodes, x)
	}
	slices.Sort(nodes)
	for _, x := range nodes {
		i := tr.NodePotential(x)
		if i < tr.K && (!found || i < bestI) {
			bestX, bestI, found = x, i, true
		}
	}
	return bestX, bestI, found
}

// MaxLabelBits returns the register width of the trace labels: K levels,
// each carrying a fragment identity and an edge (two identities plus a
// weight) — Θ(log² n) total, the optimal width for silent MST (the
// Korman–Kutten lower bound the paper cites).
func (tr *Trace) MaxLabelBits(g *graph.Graph) int {
	n := g.N()
	maxW := graph.Weight(1)
	for _, e := range g.Edges() {
		if e.W > maxW {
			maxW = e.W
		}
	}
	perLevel := runtime.BitsForValue(n) + 1 + 2*runtime.BitsForValue(n) + runtime.BitsForValue(int(maxW))
	return tr.K * perLevel
}

// ConstructionRounds returns the rounds charged for the silent
// self-stabilizing construction of the trace labels: per level, one
// min-ID relaxation within fragments and one lightest-outgoing-edge
// relaxation, each bounded by the tree height (fragments are subtrees,
// so information crosses a fragment in at most 2·height hops).
func (tr *Trace) ConstructionRounds(t *trees.Tree) int {
	height := 0
	for _, d := range t.Depths() {
		if d > height {
			height = d
		}
	}
	return tr.K * (4*height + 4)
}
