package trees

import (
	"slices"

	"silentspan/internal/graph"
)

// HeavyPathDecomposition partitions the nodes of a rooted tree into heavy
// paths, the structure underlying the O(log n)-bit NCA labeling scheme of
// Alstrup et al. used in Section V of the paper.
//
// The heavy child of an internal node v is its child with the largest
// subtree (ties broken by smallest ID). The edge to the heavy child is
// heavy; all other child edges are light. Maximal chains of heavy edges
// form heavy paths; a node with no heavy child (a leaf) terminates its
// path. Every root-to-node path crosses at most floor(log2 n) light edges,
// because crossing a light edge at least halves the subtree size.
type HeavyPathDecomposition struct {
	tree *Tree
	// head[v] is the topmost node of v's heavy path.
	head map[graph.NodeID]graph.NodeID
	// pos[v] is v's index along its heavy path (head has pos 0).
	pos map[graph.NodeID]int
	// paths[h] is the node sequence of the heavy path headed by h.
	paths map[graph.NodeID][]graph.NodeID
	// heavyChild[v] is v's heavy child, or None for leaves.
	heavyChild map[graph.NodeID]graph.NodeID
	size       map[graph.NodeID]int
}

// Decompose computes the heavy-path decomposition of t.
func Decompose(t *Tree) *HeavyPathDecomposition {
	d := &HeavyPathDecomposition{
		tree:       t,
		head:       make(map[graph.NodeID]graph.NodeID, t.N()),
		pos:        make(map[graph.NodeID]int, t.N()),
		paths:      make(map[graph.NodeID][]graph.NodeID),
		heavyChild: make(map[graph.NodeID]graph.NodeID, t.N()),
		size:       t.SubtreeSizes(),
	}
	for _, v := range t.Nodes() {
		d.heavyChild[v] = heavyChildOf(v, t.children[v], d.size)
	}
	// Walk each heavy path from its head. Heads are: the root, and every
	// node that is not the heavy child of its parent.
	for _, v := range t.Nodes() {
		p := t.Parent(v)
		if p != None && d.heavyChild[p] == v {
			continue // not a head
		}
		var path []graph.NodeID
		for x := v; x != None; x = d.heavyChild[x] {
			d.head[x] = v
			d.pos[x] = len(path)
			path = append(path, x)
		}
		d.paths[v] = path
	}
	return d
}

func heavyChildOf(v graph.NodeID, children []graph.NodeID, size map[graph.NodeID]int) graph.NodeID {
	best := None
	bestSize := -1
	for _, c := range children {
		if size[c] > bestSize {
			best, bestSize = c, size[c]
		}
	}
	return best
}

// Head returns the head (topmost node) of v's heavy path.
func (d *HeavyPathDecomposition) Head(v graph.NodeID) graph.NodeID { return d.head[v] }

// Pos returns v's position along its heavy path (the head has position 0).
func (d *HeavyPathDecomposition) Pos(v graph.NodeID) int { return d.pos[v] }

// Path returns the node sequence of the heavy path headed by h.
func (d *HeavyPathDecomposition) Path(h graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, len(d.paths[h]))
	copy(out, d.paths[h])
	return out
}

// Heads returns the heads of all heavy paths in increasing ID order.
func (d *HeavyPathDecomposition) Heads() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(d.paths))
	for h := range d.paths {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// HeavyChild returns v's heavy child, or None if v is a leaf.
func (d *HeavyPathDecomposition) HeavyChild(v graph.NodeID) graph.NodeID { return d.heavyChild[v] }

// IsLight reports whether the edge from v to its parent is light (v is not
// its parent's heavy child). The root has no parent edge; IsLight returns
// false for it.
func (d *HeavyPathDecomposition) IsLight(v graph.NodeID) bool {
	p := d.tree.Parent(v)
	return p != None && d.heavyChild[p] != v
}

// LightDepth returns the number of light edges on the path from the root
// to v. The decomposition guarantees LightDepth(v) <= floor(log2 n).
func (d *HeavyPathDecomposition) LightDepth(v graph.NodeID) int {
	count := 0
	for x := v; x != d.tree.Root(); x = d.tree.Parent(x) {
		if d.IsLight(x) {
			count++
		}
	}
	return count
}

// SubtreeSize returns the size of the subtree rooted at v.
func (d *HeavyPathDecomposition) SubtreeSize(v graph.NodeID) int { return d.size[v] }

// OffPathWeight returns w(v) = size(v) - size(heavyChild(v)), the number
// of nodes of v's subtree not continuing along v's heavy path (size(v) for
// a leaf). These weights drive the alphabetic position codes of the NCA
// labeling: they sum to the head's subtree size along each heavy path, so
// code lengths telescope.
func (d *HeavyPathDecomposition) OffPathWeight(v graph.NodeID) int {
	hc := d.heavyChild[v]
	if hc == None {
		return d.size[v]
	}
	return d.size[v] - d.size[hc]
}
