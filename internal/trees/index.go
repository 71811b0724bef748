package trees

import (
	"maps"
	"slices"

	"silentspan/internal/graph"
)

// Index is a precomputed read-only view of a Tree for traversal-heavy
// consumers such as the routing coordinate labeler: depths, height and a
// breadth-first order, built in one O(n) pass, and the tree's own child
// lists, handed out without the copy Tree.Children makes.
//
// The Index snapshots the tree at construction time: it does not observe
// later AddChild calls, which replace or extend a list past the length
// the Index holds but never edit it.
type Index struct {
	t        *Tree
	children map[graph.NodeID][]graph.NodeID
	depth    map[graph.NodeID]int
	order    []graph.NodeID // breadth-first from the root
	height   int
}

// NewIndex builds the index in O(n).
func NewIndex(t *Tree) *Index {
	ix := &Index{
		t:        t,
		children: maps.Clone(t.children),
		depth:    make(map[graph.NodeID]int, t.N()),
		order:    t.bfsOrder(),
	}
	for _, v := range ix.order[1:] {
		d := ix.depth[t.parent[v]] + 1
		ix.depth[v] = d
		ix.height = max(ix.height, d)
	}
	return ix
}

// Tree returns the indexed tree.
func (ix *Index) Tree() *Tree { return ix.t }

// Children returns the children of v in increasing ID order. The slice
// is shared with the tree; callers must not mutate it. It is clipped, so
// an append to it copies instead of writing into the tree's list.
func (ix *Index) Children(v graph.NodeID) []graph.NodeID { return slices.Clip(ix.children[v]) }

// Depth returns the depth of v (0 at the root).
func (ix *Index) Depth(v graph.NodeID) int { return ix.depth[v] }

// Height returns the height of the tree (0 for a single node).
func (ix *Index) Height() int { return ix.height }

// BFSOrder returns the nodes in breadth-first order from the root. The
// slice is owned by the index; callers must not mutate it.
func (ix *Index) BFSOrder() []graph.NodeID { return ix.order }

// PortOf returns the index of child within parent's sorted children list
// — the "port number" the routing coordinates are built from. ok is
// false if child is not a child of parent.
func (ix *Index) PortOf(parent, child graph.NodeID) (int, bool) {
	return slices.BinarySearch(ix.children[parent], child)
}
