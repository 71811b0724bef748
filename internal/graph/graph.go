// Package graph provides the network substrate of the paper's model
// (Section II-A): simple connected graphs whose nodes carry distinct,
// incorruptible identities, and whose edges may carry distinct,
// incorruptible weights storable on O(log n) bits.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// NodeID is a node identity, drawn from {1, ..., n^c} as in the paper.
// Identities are constants: a self-stabilizing algorithm may read them but
// transient faults never corrupt them.
type NodeID int

// Weight is an edge weight. The paper assumes all weights are pairwise
// distinct (w.l.o.g. per [34]); generators in this package enforce that.
type Weight int64

// Edge is an undirected edge between two nodes, optionally weighted.
type Edge struct {
	U, V NodeID
	W    Weight
}

// Canonical returns the edge with endpoints ordered U < V, so that edges
// compare structurally regardless of construction order.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// SameEndpoints reports whether two edges join the same pair of nodes,
// ignoring the weight field (structures such as fundamental cycles carry
// weightless edges).
func SameEndpoints(a, b Edge) bool {
	ac, bc := a.Canonical(), b.Canonical()
	return ac.U == bc.U && ac.V == bc.V
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e.
func (e Edge) Other(x NodeID) NodeID {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d not an endpoint of edge %v", x, e))
}

// Graph is a simple undirected graph: a sorted identity list over its
// one adjacency store, the Dense. The zero value is an empty graph.
type Graph struct {
	nodes []NodeID // identities in increasing order
	m     int      // number of edges
	d     Dense
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode inserts a node. Adding an existing node is a no-op. Negative
// identities are rejected (the paper draws IDs from {1..n^c}; the dense
// layer reserves NoNode for vacated slots).
func (g *Graph) AddNode(id NodeID) {
	if g.HasNode(id) {
		return
	}
	if id < 0 {
		panic(fmt.Sprintf("graph: negative node identity %d", id))
	}
	i, _ := slices.BinarySearch(g.nodes, id)
	g.nodes = slices.Insert(g.nodes, i, id)
	g.d.addNode(id)
}

// AddEdge inserts an undirected edge with weight w, adding missing
// endpoints. Self-loops are rejected; re-adding an edge overwrites its
// weight.
func (g *Graph) AddEdge(u, v NodeID, w Weight) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	g.AddNode(u)
	g.AddNode(v)
	if g.HasEdge(u, v) {
		g.d.setWeight(u, v, w)
		return nil
	}
	g.d.addEdge(u, v, w)
	g.m++
	return nil
}

// AddLink inserts the new edge {u,v} between two existing nodes — a link
// coming up in a live topology. Unlike AddEdge it adds no node and
// overwrites no weight: a missing endpoint, an edge already present or
// a self-loop is an error, and g is left unchanged.
func (g *Graph) AddLink(u, v NodeID, w Weight) error {
	if !g.HasNode(u) || !g.HasNode(v) {
		return fmt.Errorf("graph: edge {%d,%d} needs both endpoints present", u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: edge {%d,%d} already present", u, v)
	}
	return g.AddEdge(u, v, w)
}

// CheckJoin reports whether node id may join g through edges: id is a
// new, non-negative identity and every edge joins it to a distinct
// existing node. It changes nothing, so a live topology that runs it
// before its first mutation rejects a bad join whole.
func (g *Graph) CheckJoin(id NodeID, edges []Edge) error {
	if id < 0 {
		return fmt.Errorf("graph: negative node identity %d", id)
	}
	if g.HasNode(id) {
		return fmt.Errorf("graph: node %d already present", id)
	}
	for i, e := range edges {
		if e.U != id && e.V != id {
			return fmt.Errorf("graph: join edge %v does not touch node %d", e, id)
		}
		v := e.Other(id)
		if !g.HasNode(v) {
			return fmt.Errorf("graph: join edge %v: %d is not a member", e, v)
		}
		if slices.ContainsFunc(edges[:i], func(f Edge) bool { return f.Other(id) == v }) {
			return fmt.Errorf("graph: join edge %v listed twice", e)
		}
	}
	return nil
}

// RemoveEdge deletes the edge {u,v}. It returns an error if the edge is
// absent, so double-removal is loud rather than silently idempotent.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: no edge {%d,%d}", u, v)
	}
	g.d.removeEdge(u, v)
	g.m--
	return nil
}

// RemoveNode deletes node id and every incident edge. It returns an
// error if the node is absent. The node's dense slot is vacated and
// becomes available for a later AddNode.
func (g *Graph) RemoveNode(id NodeID) error {
	if !g.HasNode(id) {
		return fmt.Errorf("graph: no node %d", id)
	}
	for _, u := range g.Neighbors(id) {
		if err := g.RemoveEdge(id, u); err != nil {
			return err
		}
	}
	i, _ := slices.BinarySearch(g.nodes, id)
	g.nodes = slices.Delete(g.nodes, i, i+1)
	g.d.removeNode(id)
	return nil
}

// UpdateEdgeWeight overwrites the weight of the existing edge {u,v} in
// place, in every state of the dense store, so index-addressed layers
// holding it (the runtime's register file, the router) observe the new
// weight immediately. It is the graph half of live topology churn — the
// structural shape stays fixed, only the cost surface moves. It returns
// an error if the edge is absent.
func (g *Graph) UpdateEdgeWeight(u, v NodeID, w Weight) error {
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: no edge {%d,%d}", u, v)
	}
	g.d.setWeight(u, v, w)
	return nil
}

// MustAddEdge is AddEdge that panics on error; for generators, tests and
// callers that have validated the edge.
func (g *Graph) MustAddEdge(u, v NodeID, w Weight) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.nodes) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Nodes returns the node identities in increasing order. The returned
// slice is a copy: callers may mutate it freely.
func (g *Graph) Nodes() []NodeID { return slices.Clone(g.nodes) }

// HasNode reports whether id is a node of g.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.d.IndexOf(id)
	return ok
}

// HasEdge reports whether {u,v} is an edge of g.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, _, ok := g.d.arc(u, v)
	return ok
}

// EdgeWeight returns the weight of edge {u,v}; ok is false if the edge is
// absent.
func (g *Graph) EdgeWeight(u, v NodeID) (Weight, bool) {
	i, j, ok := g.d.arc(u, v)
	if !ok {
		return 0, false
	}
	return g.d.Weights(i)[j], true
}

// Neighbors returns the neighbors of v in increasing ID order. The slice
// is a copy.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return slices.Clone(g.NeighborsShared(v))
}

// NeighborsShared returns the neighbors of v in increasing ID order
// without copying. The slice is owned by the graph: callers must not
// mutate it and must not hold it across AddEdge calls. It exists for the
// per-step view building of the runtime and the per-hop forwarding
// decisions of the router, where the defensive copy of Neighbors
// dominates the profile.
func (g *Graph) NeighborsShared(v NodeID) []NodeID {
	i, ok := g.d.IndexOf(v)
	if !ok {
		return nil
	}
	return g.d.NeighborIDs(i)
}

// Degree returns the degree of v in g.
func (g *Graph) Degree(v NodeID) int { return len(g.NeighborsShared(v)) }

// MaxDegree returns the maximum node degree in g (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	deg := 0
	for i := range g.d.ids {
		deg = max(deg, g.d.Degree(i))
	}
	return deg
}

// Edges returns all edges, canonically oriented (U < V), sorted by
// (U, V). The slice is a copy.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for k, u := range g.nodes {
		i := k // slot order is identity order while sorted
		if !g.d.Sorted() {
			i, _ = g.d.IndexOf(u)
		}
		ids, _, wts := g.d.row(i)
		for k, v := range ids {
			if u < v {
				out = append(out, Edge{U: u, V: v, W: wts[k]})
			}
		}
	}
	return out
}

// EdgesByWeight returns all edges sorted by increasing weight, ties broken
// by (U, V) — the standard distinct-weight reduction of [34].
func (g *Graph) EdgesByWeight() []Edge {
	out := g.Edges()
	slices.SortFunc(out, func(a, b Edge) int {
		switch {
		case a.W != b.W:
			return cmp.Compare(a.W, b.W)
		case a.U != b.U:
			return cmp.Compare(a.U, b.U)
		default:
			return cmp.Compare(a.V, b.V)
		}
	})
	return out
}

// Connected reports whether g is connected (the paper assumes connected
// networks). The empty graph is vacuously connected. The traversal runs
// over the dense snapshot — index-addressed, no map per visit — since
// every NewNetwork pays this check.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	d := g.Dense()
	seen := make([]bool, d.Slots())
	start, ok := d.IndexOf(g.nodes[0])
	if !ok {
		return false
	}
	stack := make([]int32, 1, 64)
	stack[0] = int32(start)
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range d.NeighborIndices(int(v)) {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == len(g.nodes)
}

// BFSDistances returns the hop distance from root to every node, or an
// error if some node is unreachable.
func (g *Graph) BFSDistances(root NodeID) (map[NodeID]int, error) {
	r, ok := g.d.IndexOf(root)
	if !ok {
		return nil, fmt.Errorf("graph: unknown root %d", root)
	}
	dist := make([]int32, len(g.d.ids))
	for i := range dist {
		dist[i] = -1
	}
	dist[r] = 0
	queue := make([]int32, 1, len(g.nodes))
	queue[0] = int32(r)
	for q := 0; q < len(queue); q++ {
		v := queue[q]
		for _, u := range g.d.NeighborIndices(int(v)) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	if len(queue) != len(g.nodes) {
		return nil, fmt.Errorf("graph: %d of %d nodes unreachable from %d",
			len(g.nodes)-len(queue), len(g.nodes), root)
	}
	out := make(map[NodeID]int, len(queue))
	for _, v := range queue {
		out[g.d.ids[v]] = int(dist[v])
	}
	return out, nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	out := New()
	for _, v := range g.nodes {
		out.AddNode(v)
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(e.U, e.V, e.W)
	}
	return out
}

// DistinctWeights reports whether all edge weights are pairwise distinct.
func (g *Graph) DistinctWeights() bool {
	seen := make(map[Weight]bool, g.M())
	for _, e := range g.Edges() {
		if seen[e.W] {
			return false
		}
		seen[e.W] = true
	}
	return true
}

// MinID returns the smallest node identity; it panics on an empty graph.
// The substrate leader election (Instruction 1 of the paper's Algorithm 1)
// elects this node.
func (g *Graph) MinID() NodeID {
	if len(g.nodes) == 0 {
		panic("graph: MinID of empty graph")
	}
	return g.nodes[0]
}
