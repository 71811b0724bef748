// Package trees provides rooted spanning trees in the paper's distributed
// encoding (Section II-B): every node v stores the identity p(v) of its
// parent, and the root r stores p(r) = ⊥ (represented here as None). The
// package also provides the structural operations the paper's machinery is
// built on: fundamental cycles (Section III), subtree sizes (the malleable
// labeling of Section IV), and heavy-path decomposition (the NCA labeling
// of Section V).
package trees

import (
	"fmt"
	"maps"
	"slices"

	"silentspan/internal/graph"
)

// None is the ⊥ parent value of the root.
const None graph.NodeID = 0

// Tree is a rooted tree encoded as a parent map, the distributed encoding
// of the paper, plus the ascending child lists that map implies.
// Construct with NewTree or FromParentMap.
type Tree struct {
	root   graph.NodeID
	parent map[graph.NodeID]graph.NodeID
	// children[v] lists v's children in increasing order; leaves have no
	// entry. A stored list is never written below its length, so a slice
	// an Index or a Clone already holds keeps reading the same children.
	children map[graph.NodeID][]graph.NodeID
}

// NewTree returns the single-node tree rooted at root.
func NewTree(root graph.NodeID) *Tree {
	return &Tree{
		root:     root,
		parent:   map[graph.NodeID]graph.NodeID{root: None},
		children: map[graph.NodeID][]graph.NodeID{},
	}
}

// withParents returns the tree rooted at root with the given parent map,
// which it takes ownership of, and builds its child lists.
func withParents(root graph.NodeID, parent map[graph.NodeID]graph.NodeID) *Tree {
	t := &Tree{root: root, parent: parent, children: make(map[graph.NodeID][]graph.NodeID)}
	for v, p := range parent {
		if p != None {
			t.children[p] = append(t.children[p], v)
		}
	}
	for _, cs := range t.children {
		slices.Sort(cs)
	}
	return t
}

// FromParentMap validates that the given parent assignment encodes a tree
// (exactly one ⊥, no cycles, all nodes reaching the root) and returns it.
// This is the global predicate that the proof-labeling schemes of the
// paper certify locally.
func FromParentMap(parent map[graph.NodeID]graph.NodeID) (*Tree, error) {
	root := None
	for v, p := range parent {
		if p == None {
			if root != None {
				return nil, fmt.Errorf("trees: two roots: %d and %d", root, v)
			}
			root = v
		}
	}
	if root == None {
		return nil, fmt.Errorf("trees: no root (no node with parent ⊥)")
	}
	// Every node must reach the root without revisiting a node.
	for v := range parent {
		seen := map[graph.NodeID]bool{}
		x := v
		for x != root {
			if seen[x] {
				return nil, fmt.Errorf("trees: cycle through node %d", v)
			}
			seen[x] = true
			p, ok := parent[x]
			if !ok {
				return nil, fmt.Errorf("trees: node %d has parent %d outside the tree", x, p)
			}
			x = p
		}
	}
	return withParents(root, maps.Clone(parent)), nil
}

// Root returns the root of t.
func (t *Tree) Root() graph.NodeID { return t.root }

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.parent) }

// Parent returns p(v), which is None for the root. It panics if v is not
// in the tree.
func (t *Tree) Parent(v graph.NodeID) graph.NodeID {
	p, ok := t.parent[v]
	if !ok {
		panic(fmt.Sprintf("trees: node %d not in tree", v))
	}
	return p
}

// Has reports whether v is a node of t.
func (t *Tree) Has(v graph.NodeID) bool {
	_, ok := t.parent[v]
	return ok
}

// Nodes returns all node identities in increasing order.
func (t *Tree) Nodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(t.parent))
	for v := range t.parent {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// AddChild attaches child under parent. It panics if parent is absent or
// child is already present.
func (t *Tree) AddChild(parent, child graph.NodeID) {
	if !t.Has(parent) {
		panic(fmt.Sprintf("trees: parent %d not in tree", parent))
	}
	if t.Has(child) {
		panic(fmt.Sprintf("trees: child %d already in tree", child))
	}
	t.parent[child] = parent
	cs := t.children[parent]
	if i, _ := slices.BinarySearch(cs, child); i < len(cs) {
		// Not past the end: insert into a fresh list.
		t.children[parent] = slices.Insert(slices.Clip(cs), i, child)
		return
	}
	t.children[parent] = append(cs, child)
}

// Children returns the children of v in increasing ID order, in a slice
// the caller owns. It costs O(deg(v)).
func (t *Tree) Children(v graph.NodeID) []graph.NodeID {
	return slices.Clone(t.children[v])
}

// HasEdge reports whether {u,v} is a tree edge.
func (t *Tree) HasEdge(u, v graph.NodeID) bool {
	return t.parent[u] == v || t.parent[v] == u
}

// Degree returns the degree of v in the tree (children + parent edge)
// in O(1).
func (t *Tree) Degree(v graph.NodeID) int {
	d := len(t.children[v])
	if t.Parent(v) != None {
		d++
	}
	return d
}

// MaxDegree returns deg(T), the maximum node degree — the quantity the
// MDST task minimizes (Section II-B) — in O(n).
func (t *Tree) MaxDegree() int {
	max := 0
	for v := range t.parent {
		if d := t.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// DegreeCount returns the number of nodes whose tree degree is exactly d —
// the N_T term in the MDST potential function of Section VIII — in O(n).
func (t *Tree) DegreeCount(d int) int {
	count := 0
	for v := range t.parent {
		if t.Degree(v) == d {
			count++
		}
	}
	return count
}

// Depth returns the number of hops from v to the root.
func (t *Tree) Depth(v graph.NodeID) int {
	d := 0
	for x := v; x != t.root; x = t.Parent(x) {
		d++
	}
	return d
}

// Depths returns the depth of every node, computed in one pass.
func (t *Tree) Depths() map[graph.NodeID]int {
	depth := make(map[graph.NodeID]int, len(t.parent))
	var solve func(v graph.NodeID) int
	solve = func(v graph.NodeID) int {
		if v == t.root {
			return 0
		}
		if d, ok := depth[v]; ok {
			return d
		}
		d := solve(t.Parent(v)) + 1
		depth[v] = d
		return d
	}
	for v := range t.parent {
		depth[v] = solve(v)
	}
	return depth
}

// SubtreeSizes returns, for every node v, the size s(v) of the subtree
// rooted at v — the quantity certified by the size-based labeling of the
// malleable scheme (Section IV): s(v) = 1 + sum of children's sizes. It
// costs O(n).
func (t *Tree) SubtreeSizes() map[graph.NodeID]int {
	size := make(map[graph.NodeID]int, len(t.parent))
	order := t.bfsOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		size[v]++
		if p := t.parent[v]; p != None {
			size[p] += size[v]
		}
	}
	return size
}

// bfsOrder returns the nodes in breadth-first order from the root,
// children in increasing order.
func (t *Tree) bfsOrder() []graph.NodeID {
	order := append(make([]graph.NodeID, 0, len(t.parent)), t.root)
	for i := 0; i < len(order); i++ {
		order = append(order, t.children[order[i]]...)
	}
	return order
}

// PathToRoot returns the node sequence v, p(v), ..., root.
func (t *Tree) PathToRoot(v graph.NodeID) []graph.NodeID {
	var path []graph.NodeID
	for x := v; ; x = t.Parent(x) {
		path = append(path, x)
		if x == t.root {
			return path
		}
	}
}

// NCA returns the nearest common ancestor of u and v, computed
// structurally (the ground truth against which the label-based NCA of
// internal/nca is tested).
func (t *Tree) NCA(u, v graph.NodeID) graph.NodeID {
	onPath := make(map[graph.NodeID]bool)
	for _, x := range t.PathToRoot(u) {
		onPath[x] = true
	}
	for x := v; ; x = t.Parent(x) {
		if onPath[x] {
			return x
		}
		if x == t.root {
			return t.root
		}
	}
}

// TreePath returns the unique simple path from u to v in t.
func (t *Tree) TreePath(u, v graph.NodeID) []graph.NodeID {
	nca := t.NCA(u, v)
	var up []graph.NodeID
	for x := u; x != nca; x = t.Parent(x) {
		up = append(up, x)
	}
	up = append(up, nca)
	var down []graph.NodeID
	for x := v; x != nca; x = t.Parent(x) {
		down = append(down, x)
	}
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

// FundamentalCycle returns the fundamental cycle of T + e for a non-tree
// edge e = {u,v}: the cycle formed by e and the tree path between its
// extremities (paper, footnote 2). The result is the node sequence of the
// tree path from e.U to e.V; the cycle closes with e itself.
func (t *Tree) FundamentalCycle(e graph.Edge) []graph.NodeID {
	if t.HasEdge(e.U, e.V) {
		panic(fmt.Sprintf("trees: edge %v is a tree edge, not a non-tree edge", e))
	}
	return t.TreePath(e.U, e.V)
}

// CycleEdges returns the tree edges on the fundamental cycle of T + e.
func (t *Tree) CycleEdges(e graph.Edge) []graph.Edge {
	path := t.FundamentalCycle(e)
	out := make([]graph.Edge, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		out = append(out, graph.Edge{U: path[i], V: path[i+1]}.Canonical())
	}
	return out
}

// Swap returns the tree T + e - f: the non-tree edge e is added and the
// tree edge f (which must lie on the fundamental cycle of T + e) is
// removed. Swap is the primitive transformation τ of Definition 4.1, the
// basis of the PLS-guided local search. The receiver is unchanged. It
// returns an error if e is not a non-tree edge between nodes of t, f is
// off e's fundamental cycle, or the result is disconnected.
func (t *Tree) Swap(e, f graph.Edge) (*Tree, error) {
	if !t.Has(e.U) || !t.Has(e.V) || t.HasEdge(e.U, e.V) {
		return nil, fmt.Errorf("trees: %v is not a non-tree edge between nodes of the tree", e)
	}
	onCycle := false
	for _, ce := range t.CycleEdges(e) {
		if graph.SameEndpoints(ce, f) {
			onCycle = true
			break
		}
	}
	if !onCycle {
		return nil, fmt.Errorf("trees: edge %v not on the fundamental cycle of %v", f, e)
	}
	// Build the undirected edge set of T + e - f, then re-root at t.root.
	adj := make(map[graph.NodeID][]graph.NodeID, len(t.parent))
	addEdge := func(a, b graph.NodeID) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for v, p := range t.parent {
		if p == None {
			continue
		}
		if graph.SameEndpoints(graph.Edge{U: v, V: p}, f) {
			continue
		}
		addEdge(v, p)
	}
	addEdge(e.U, e.V)
	parent := make(map[graph.NodeID]graph.NodeID, len(t.parent))
	parent[t.root] = None
	stack := []graph.NodeID{t.root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if _, ok := parent[u]; !ok {
				parent[u] = v
				stack = append(stack, u)
			}
		}
	}
	if len(parent) != len(t.parent) {
		return nil, fmt.Errorf("trees: swap (%v, %v) disconnected the tree", e, f)
	}
	return withParents(t.root, parent), nil
}

// Reroot returns the same undirected tree re-rooted at newRoot.
func (t *Tree) Reroot(newRoot graph.NodeID) *Tree {
	if !t.Has(newRoot) {
		panic(fmt.Sprintf("trees: node %d not in tree", newRoot))
	}
	parent := t.ParentMap()
	// Reverse the edges on the path from newRoot to the old root.
	path := t.PathToRoot(newRoot)
	for i := 0; i+1 < len(path); i++ {
		parent[path[i+1]] = path[i]
	}
	parent[newRoot] = None
	return withParents(newRoot, parent)
}

// ParentMap returns a copy of the parent assignment.
func (t *Tree) ParentMap() map[graph.NodeID]graph.NodeID { return maps.Clone(t.parent) }

// Clone returns a deep copy of t. The copies share child lists, clipped so
// that an AddChild on either side reallocates instead of writing into the
// other's list.
func (t *Tree) Clone() *Tree {
	out := &Tree{root: t.root, parent: t.ParentMap(), children: make(map[graph.NodeID][]graph.NodeID, len(t.children))}
	for v, cs := range t.children {
		out.children[v] = slices.Clip(cs)
	}
	return out
}

// Edges returns the tree edges (canonically oriented, sorted).
func (t *Tree) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(t.parent)-1)
	for v, p := range t.parent {
		if p != None {
			out = append(out, graph.Edge{U: v, V: p}.Canonical())
		}
	}
	slices.SortFunc(out, func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U - b.U)
		}
		return int(a.V - b.V)
	})
	return out
}

// IsSpanningTreeOf reports whether t spans exactly the nodes of g and all
// tree edges are edges of g — the legality predicate of the spanning tree
// task (Section II-A).
func (t *Tree) IsSpanningTreeOf(g *graph.Graph) bool {
	if t.N() != g.N() {
		return false
	}
	for v, p := range t.parent {
		if !g.HasNode(v) {
			return false
		}
		if p != None && !g.HasEdge(v, p) {
			return false
		}
	}
	return true
}

// Weight returns the total weight of t's edges in g. It returns an error
// if a tree edge is missing from g.
func (t *Tree) Weight(g *graph.Graph) (graph.Weight, error) {
	var total graph.Weight
	for _, e := range t.Edges() {
		w, ok := g.EdgeWeight(e.U, e.V)
		if !ok {
			return 0, fmt.Errorf("trees: tree edge %v not in graph", e)
		}
		total += w
	}
	return total, nil
}

// NonTreeEdges returns the edges of g that are not edges of t.
func (t *Tree) NonTreeEdges(g *graph.Graph) []graph.Edge {
	var out []graph.Edge
	for _, e := range g.Edges() {
		if !t.HasEdge(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}
