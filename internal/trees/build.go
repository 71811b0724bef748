package trees

import (
	"fmt"
	"math/rand"

	"silentspan/internal/graph"
)

// BFSTree returns a breadth-first spanning tree of g rooted at root, with
// neighbors explored in increasing ID order (deterministic). A BFS tree
// realizes dist_T(v, root) = dist_G(v, root) for every v — the legality
// predicate of the BFS task (Section III example).
func BFSTree(g *graph.Graph, root graph.NodeID) (*Tree, error) {
	if !g.HasNode(root) {
		return nil, fmt.Errorf("trees: unknown root %d", root)
	}
	t := NewTree(root)
	queue := []graph.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if !t.Has(u) {
				t.AddChild(v, u)
				queue = append(queue, u)
			}
		}
	}
	if t.N() != g.N() {
		return nil, fmt.Errorf("trees: graph not connected: reached %d of %d nodes", t.N(), g.N())
	}
	return t, nil
}

// DFSTree returns a depth-first spanning tree of g rooted at root.
// DFS trees tend to have long paths and small degree, useful as MDST
// starting points and as adversarial inputs for BFS repair.
func DFSTree(g *graph.Graph, root graph.NodeID) (*Tree, error) {
	if !g.HasNode(root) {
		return nil, fmt.Errorf("trees: unknown root %d", root)
	}
	t := NewTree(root)
	var visit func(v graph.NodeID)
	visit = func(v graph.NodeID) {
		for _, u := range g.Neighbors(v) {
			if !t.Has(u) {
				t.AddChild(v, u)
				visit(u)
			}
		}
	}
	visit(root)
	if t.N() != g.N() {
		return nil, fmt.Errorf("trees: graph not connected: reached %d of %d nodes", t.N(), g.N())
	}
	return t, nil
}

// RandomSpanningTree returns a uniformly-ish random spanning tree of g
// (random edge order Kruskal), rooted at root. Deterministic given rng.
// Random trees are the arbitrary initial configurations from which the
// PLS-guided local search must converge.
func RandomSpanningTree(g *graph.Graph, root graph.NodeID, rng *rand.Rand) (*Tree, error) {
	if !g.HasNode(root) {
		return nil, fmt.Errorf("trees: unknown root %d", root)
	}
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	uf := graph.NewUnionFind(g.Nodes())
	var forest []graph.Edge
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			forest = append(forest, e)
		}
	}
	if uf.Sets() != 1 {
		return nil, fmt.Errorf("trees: graph not connected (%d components)", uf.Sets())
	}
	return FromEdges(root, forest)
}

// FromEdges orients an edge set away from root: it returns the tree
// rooted at root whose edges are exactly the given ones (weights are
// ignored). The orientation is unique, so the order of edges does not
// matter. It errors unless the edges form one tree containing root; no
// edges at all make the single-node tree.
func FromEdges(root graph.NodeID, edges []graph.Edge) (*Tree, error) {
	adj := make(map[graph.NodeID][]graph.NodeID, len(edges)+1)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	parent := make(map[graph.NodeID]graph.NodeID, len(edges)+1)
	parent[root] = None
	stack := []graph.NodeID{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if _, seen := parent[u]; !seen {
				parent[u] = v
				stack = append(stack, u)
			}
		}
	}
	// The walk reached len(parent) nodes over len(parent)-1 edges; any
	// edge left over closes a cycle or lies outside root's component.
	if len(parent) != len(edges)+1 {
		return nil, fmt.Errorf("trees: %d edges do not form one tree containing %d (%d nodes reached)",
			len(edges), root, len(parent))
	}
	return withParents(root, parent), nil
}

// IsBFSTree reports whether t realizes graph distances from its root:
// for all v, depth_T(v) == dist_G(v, root).
func IsBFSTree(t *Tree, g *graph.Graph) bool {
	dist, err := g.BFSDistances(t.Root())
	if err != nil {
		return false
	}
	depth := t.Depths()
	for v, d := range depth {
		if dist[v] != d {
			return false
		}
	}
	return true
}
