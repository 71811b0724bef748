package routing

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

// Labeling assigns tree coordinates to nodes. A labeling built from a
// validated tree (Label) covers every node and has a single root; a
// labeling built from raw parent pointers (LiveLabeling) may be partial
// — nodes on parent cycles or pointing at non-neighbors carry no
// coordinate — and may have several claimed roots, each defining its own
// coordinate space.
//
// Internally a Labeling is array-backed over the same contiguous index
// space as graph.Dense: ids holds the covered identities, and recs is
// parallel to it, one 32-byte label record per index. The router
// detects when a labeling's index space coincides with its graph's
// dense snapshot and then forwards entirely index-addressed, with no
// per-hop identity lookups (see Router.NextHop).
type Labeling struct {
	ids   []graph.NodeID // the labeling's index space; graph.NoNode marks holes
	recs  []label        // recs[i] labels ids[i]
	arena []uint64       // ports past the eighth, four to a word (see label)
	dead  int            // arena words no record refers to any more
	n     int            // labeled nodes

	// d + nodeEpoch: labelings built over a graph's dense slot space
	// record which Dense and which slot-assignment epoch they saw, so
	// the router takes its slot-aligned fast path exactly while the
	// assignment is provably unchanged (see Router.SetLabeling), and
	// identities resolve through the Dense. The ids slice is an owned
	// copy, never the Dense's live array: a labeling held across churn
	// keeps a consistent (merely stale) identity space instead of a
	// corrupted one. Nil d: ids ascend (Label).
	d         *graph.Dense
	nodeEpoch uint64
}

// label is one index's coordinate record, 32 bytes. The first eight
// ports sit in w, 16 bits each, the first port in the top bits of w[0];
// ports past the eighth continue in the labeling's arena at off, four to
// a word, packed the same way. Unused port positions are zero. n is the
// coordinate length, -1 when unlabeled; root names the coordinate
// space.
type label struct {
	w    [2]uint64
	root graph.NodeID
	off  int32
	n    int32
}

// inlinePorts is how many ports a label record holds itself.
const inlinePorts = 8

// spill is the number of arena words a coordinate of length n occupies.
func spill(n int32) int {
	if n <= inlinePorts {
		return 0
	}
	return int(n-inlinePorts+3) / 4
}

// portShift is the shift of port slot k within its 64-bit word.
func portShift(k int32) uint { return uint(48 - 16*(k%4)) }

// newLabeling returns an unlabeled labeling over the given identity
// space (owned by the labeling).
func newLabeling(ids []graph.NodeID) *Labeling {
	l := &Labeling{ids: ids, recs: make([]label, len(ids))}
	for i := range l.recs {
		l.recs[i].n = -1
	}
	return l
}

// indexOf returns v's index in the labeling's identity space. Label's
// identities ascend: the index consecutive identities would give v,
// else a binary search. A live labeling takes the slot the Dense it was
// built over gives v, where its own identity agrees: slots never move,
// so that is exact while no node joined or left since, and a labeling
// held across a join or leave scans on a miss.
func (l *Labeling) indexOf(v graph.NodeID) (int, bool) {
	if l.d == nil {
		if i := int(v - l.ids[0]); i >= 0 && i < len(l.ids) && l.ids[i] == v {
			return i, true
		}
		return slices.BinarySearch(l.ids, v)
	}
	if i, ok := l.d.IndexOf(v); ok && i < len(l.ids) && l.ids[i] == v {
		return i, true
	}
	if l.d.NodeEpoch() == l.nodeEpoch || v == graph.NoNode {
		return 0, false
	}
	i := slices.Index(l.ids, v)
	return i, i >= 0
}

// dist is the tree distance between two labels of one coordinate space:
// the lengths beyond their longest common prefix. The prefix comes from
// the leading zeros of the first differing word; it is clamped to the
// shorter length, because zero padding reads as port 0. The first word
// settles most pairs inline; the rest go on in prefix.
func (l *Labeling) dist(a, b *label) int {
	p := int32(bits.LeadingZeros64(a.w[0]^b.w[0]) / 16)
	if p == 4 {
		p = l.prefix(a, b)
	}
	return int(a.n + b.n - 2*min(p, a.n, b.n))
}

// prefix is the common prefix, in ports, of two labels whose first four
// ports match, unclamped. Arena words are read only when both labels
// spill and every inline port matches.
func (l *Labeling) prefix(a, b *label) int32 {
	if x := a.w[1] ^ b.w[1]; x != 0 || a.n <= inlinePorts || b.n <= inlinePorts {
		return 4 + int32(bits.LeadingZeros64(x)/16)
	}
	wa, wb := l.arena[a.off:int(a.off)+spill(a.n)], l.arena[b.off:int(b.off)+spill(b.n)]
	k := 0
	for ; k < min(len(wa), len(wb)); k++ {
		if x := wa[k] ^ wb[k]; x != 0 {
			return inlinePorts + int32(4*k+bits.LeadingZeros64(x)/16)
		}
	}
	return inlinePorts + int32(4*k)
}

// coordsAt decodes index i's coordinate (labeled indices only).
func (l *Labeling) coordsAt(i int) Coords {
	r := &l.recs[i]
	c := make(Coords, r.n)
	for k := range r.n {
		if k < inlinePorts {
			c[k] = Port(r.w[k/4] >> portShift(k))
		} else {
			c[k] = Port(l.arena[int(r.off)+int(k-inlinePorts)/4] >> portShift(k))
		}
	}
	return c
}

// clearAt drops index i's label (no-op if unlabeled).
func (l *Labeling) clearAt(i int) {
	if r := &l.recs[i]; r.n >= 0 {
		l.dead += spill(r.n)
		l.n--
		*r = label{n: -1}
	}
}

// setRoot labels index i with the empty coordinate of space root.
func (l *Labeling) setRoot(i int, root graph.NodeID) {
	l.clearAt(i)
	l.recs[i] = label{root: root}
	l.n++
}

// place labels index i as a child of labeled index pi: pi's space and
// length plus one, its ports still unwritten (see writePorts).
func (l *Labeling) place(i, pi int) {
	l.clearAt(i)
	p := &l.recs[pi]
	l.recs[i] = label{root: p.root, n: p.n + 1}
	l.n++
}

// writePorts writes the ports of index i, placed under pi: pi's ports,
// then port. Those past the eighth are appended to the arena.
func (l *Labeling) writePorts(i, pi int, port Port) {
	r, p := &l.recs[i], &l.recs[pi]
	r.w = p.w
	k := p.n // the position of the new port
	if k < inlinePorts {
		r.w[k/4] |= uint64(port) << portShift(k)
		return
	}
	r.off = int32(len(l.arena))
	l.arena = append(l.arena, l.arena[p.off:int(p.off)+spill(k)]...)
	if spill(k+1) > spill(k) {
		l.arena = append(l.arena, 0)
	}
	l.arena[len(l.arena)-1] |= uint64(port) << portShift(k-inlinePorts)
}

// compact rewrites the arena without its dead words.
func (l *Labeling) compact() {
	arena := make([]uint64, 0, len(l.arena)-l.dead)
	for i := range l.recs {
		r := &l.recs[i]
		if w := spill(r.n); w > 0 {
			off := len(arena)
			arena = append(arena, l.arena[r.off:int(r.off)+w]...)
			r.off = int32(off)
		}
	}
	l.arena, l.dead = arena, 0
}

// maxPort is the last port a coordinate can carry: a child ranked past
// it among its siblings gets no coordinate, and neither does its
// subtree.
const maxPort = int(^Port(0))

// labelForest labels everything the roots — the indices labeled so far
// — reach down the child rows (kids[i] in port order, parent[i] the row
// i sits in). Ports are written in depth-first preorder, so a subtree's
// arena words lie together, into an arena sized by a first pass.
func (l *Labeling) labelForest(parent []int32, kids [][]int32) {
	order := make([]portedSlot, 0, len(kids))
	stack := make([]portedSlot, 0, len(kids))
	for i := len(l.recs) - 1; i >= 0; i-- {
		if l.recs[i].n >= 0 {
			stack = append(stack, portedSlot{int32(i), -1})
		}
	}
	words := 0
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.port >= 0 {
			l.place(int(e.slot), int(parent[e.slot]))
			words += spill(l.recs[e.slot].n)
		}
		order = append(order, e)
		row := kids[e.slot]
		for k := min(len(row), maxPort+1) - 1; k >= 0; k-- {
			stack = append(stack, portedSlot{row[k], int32(k)})
		}
	}
	l.arena = make([]uint64, 0, words)
	for _, e := range order {
		if e.port >= 0 {
			l.writePorts(int(e.slot), int(parent[e.slot]), Port(e.port))
		}
	}
}

// childRows groups indices under their parents (parent[i] < 0: none),
// each row in ascending index order. The rows share one backing array,
// each capped at its own length, so a row that grows moves out rather
// than overwrite its neighbour's.
func childRows(parent []int32) [][]int32 {
	n := len(parent)
	start := make([]int32, n+1)
	for _, p := range parent {
		if p >= 0 {
			start[p+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	children := make([]int32, start[n])
	kids := make([][]int32, n)
	for i := range kids {
		kids[i] = children[start[i]:start[i]:start[i+1]]
	}
	for i, p := range parent {
		if p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	return kids
}

// Label builds the full coordinate labeling of a validated tree in
// O(n log n): each node's coordinate is its parent's extended by its
// port (index within the parent's sorted children). Ports are 16 bits,
// so a child ranked past the 65 536th among its siblings, and its
// whole subtree, get no coordinate — a wrapped port would give two
// nodes one coordinate. The labeling is then not Complete, and Verify
// fails.
func Label(t *trees.Tree) *Labeling {
	l := newLabeling(t.Nodes()) // Nodes returns a fresh sorted slice
	root := t.Root()
	parent := make([]int32, len(l.ids))
	for i, v := range l.ids {
		parent[i] = -1
		if v != root {
			pi, _ := l.indexOf(t.Parent(v))
			parent[i] = int32(pi)
		}
	}
	ri, _ := l.indexOf(root)
	l.setRoot(ri, root)
	l.labelForest(parent, childRows(parent))
	return l
}

// LiveLabeling builds the best labeling obtainable from raw parent
// pointers read out of a live (possibly mid-reconvergence, possibly
// corrupted) network. Pointers to non-neighbors are discarded; every
// node whose parent pointer is trees.None becomes the root of its own
// coordinate space; nodes that do not reach any root (parent cycles)
// get no coordinate, nor does a child ranked past the last port (see
// Label). This models what a serving layer actually has while the
// self-stabilizing construction repairs itself underneath it.
//
// The pass is entirely index-addressed over the graph's dense slot
// space: parents is indexed by dense slot (ParentOf reads one entry out
// of a register) with NoParent marking nodes that carry no credible
// parent pointer (vacated slots included). The labeling's index space
// is the slot space, so a router over the same graph forwards over it
// without any identity lookups. Ports are assigned by ascending child
// identity — stable across slot recycling, and identical to the port
// numbering of Label over a validated tree.
func LiveLabeling(g *graph.Graph, parents []graph.NodeID) *Labeling {
	l, _, _ := liveForest(g.Dense(), parents)
	return l
}

// liveForest is LiveLabeling, returning beside the labeling the
// credible child forest it labeled: each slot's parent slot (-1 when
// the slot hangs under no credible pointer) and each slot's children
// in ascending identity (see childRows).
func liveForest(d *graph.Dense, parents []graph.NodeID) (*Labeling, []int32, [][]int32) {
	n := d.Slots()
	if len(parents) != n {
		panic(fmt.Sprintf("routing: %d parent entries for %d slots", len(parents), n))
	}
	l := newLabeling(slices.Clone(d.IDs()))
	l.d = d
	l.nodeEpoch = d.NodeEpoch()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
		if d.LiveAt(i) {
			if parents[i] == trees.None {
				l.setRoot(i, d.ID(i))
			}
			parent[i] = credibleParent(d, i, parents[i])
		}
	}
	kids := childRows(parent)
	if !d.Sorted() {
		// Ascending slot order is no longer ascending identity order:
		// restore the identity-sorted port numbering per parent.
		ids := d.IDs()
		for _, row := range kids {
			if len(row) > 1 {
				slices.SortFunc(row, func(a, b int32) int {
					return cmp.Compare(ids[a], ids[b])
				})
			}
		}
	}
	// Top-down from each claimed root; unreached nodes stay unlabeled.
	l.labelForest(parent, kids)
	return l, parent, kids
}

// credibleParent resolves raw, slot i's parent pointer, as a credible
// child link: the slot of the named parent if it is a live neighbor,
// else -1 (root claims and NoParent included). The search runs over the
// identity-sorted neighbor row, which stays sorted across churn (slot
// order does not) and carries the neighbor's slot beside its identity.
func credibleParent(d *graph.Dense, i int, raw graph.NodeID) int32 {
	if j, ok := slices.BinarySearch(d.NeighborIDs(i), raw); ok && raw != trees.None {
		return d.NeighborIndices(i)[j]
	}
	return -1
}

// NoParent marks a dense index whose register carries no credible
// parent pointer at all (a foreign or corrupted state), as opposed to
// trees.None, which is a genuine "I am a root" claim.
const NoParent = graph.NodeID(-1)

// ParentsFromMap converts an identity-keyed parent map into the
// slot-indexed parent slice LiveLabeling consumes: absent nodes and
// vacated slots become NoParent.
func ParentsFromMap(g *graph.Graph, parent map[graph.NodeID]graph.NodeID) []graph.NodeID {
	d := g.Dense()
	out := make([]graph.NodeID, d.Slots())
	for i := range out {
		out[i] = NoParent
		if d.LiveAt(i) {
			if p, ok := parent[d.ID(i)]; ok {
				out[i] = p
			}
		}
	}
	return out
}

// labeled resolves v to a labeled index.
func (l *Labeling) labeled(v graph.NodeID) (int, bool) {
	i, ok := l.indexOf(v)
	return i, ok && l.recs[i].n >= 0
}

// Coords returns v's coordinate, decoded from its label record into a
// fresh slice; ok is false for unlabeled nodes.
func (l *Labeling) Coords(v graph.NodeID) (Coords, bool) {
	i, ok := l.labeled(v)
	if !ok {
		return nil, false
	}
	return l.coordsAt(i), true
}

// RootOf returns the root of the coordinate space v belongs to; ok is
// false for unlabeled nodes.
func (l *Labeling) RootOf(v graph.NodeID) (graph.NodeID, bool) {
	i, ok := l.labeled(v)
	if !ok {
		return 0, false
	}
	return l.recs[i].root, true
}

// Covered returns the number of labeled nodes.
func (l *Labeling) Covered() int { return l.n }

// Complete reports whether every live node got a coordinate in one
// single coordinate space — true exactly for labelings of validated
// trees (and of fully re-stabilized live networks).
func (l *Labeling) Complete() bool {
	space := graph.NoNode
	for i, id := range l.ids {
		if r := &l.recs[i]; id != graph.NoNode {
			if r.n < 0 || space != graph.NoNode && r.root != space {
				return false
			}
			space = r.root
		}
	}
	return true
}

// pair resolves u and v to labeled indices of one coordinate space.
func (l *Labeling) pair(u, v graph.NodeID) (ui, vi int, ok bool) {
	ui, okU := l.labeled(u)
	vi, okV := l.labeled(v)
	return ui, vi, okU && okV && l.recs[ui].root == l.recs[vi].root
}

// TreeDist returns the tree distance between u and v. ok is false when
// either node is unlabeled or they belong to different coordinate
// spaces (in which case no tree route exists under this labeling).
func (l *Labeling) TreeDist(u, v graph.NodeID) (int, bool) {
	ui, vi, ok := l.pair(u, v)
	if !ok {
		return 0, false
	}
	return l.dist(&l.recs[ui], &l.recs[vi]), true
}

// IsAncestor reports whether u is an ancestor of v under the labeling
// (false when either is unlabeled or the spaces differ): u's whole
// coordinate is a prefix of v's.
func (l *Labeling) IsAncestor(u, v graph.NodeID) bool {
	ui, vi, ok := l.pair(u, v)
	if !ok {
		return false
	}
	a, b := &l.recs[ui], &l.recs[vi]
	return a.n <= b.n && l.dist(a, b) == int(b.n-a.n)
}

// MaxLabelBits returns the largest encoded coordinate in bits — the
// per-register space a node would pay to carry its label (the space
// accounting next to the paper's O(log n)-bit registers).
func (l *Labeling) MaxLabelBits() int {
	best := 0
	for i := range l.recs {
		if l.recs[i].n >= 0 {
			best = max(best, l.coordsAt(i).EncodedBits())
		}
	}
	return best
}

// Verify checks a complete labeling against its tree: every node's
// coordinate must be exactly its parent's coordinate extended by its
// port, so depths, ports, and the whole root path are validated for
// every node. It is used by tests as the labeler's ground-truth check.
func (l *Labeling) Verify(t *trees.Tree) error {
	if !l.Complete() {
		return fmt.Errorf("routing: labeling covers %d of %d nodes", l.Covered(), len(l.ids))
	}
	ix := trees.NewIndex(t)
	for i, v := range l.ids {
		c := l.coordsAt(i)
		if v == t.Root() {
			if len(c) != 0 {
				return fmt.Errorf("routing: root %d has non-empty coordinate %v", v, c)
			}
			continue
		}
		p := t.Parent(v)
		port, ok := ix.PortOf(p, v)
		if !ok {
			return fmt.Errorf("routing: node %d is not a child of its parent %d", v, p)
		}
		pc, _ := l.Coords(p)
		if len(c) != len(pc)+1 || !pc.IsAncestorOf(c) || c[len(c)-1] != Port(port) {
			return fmt.Errorf("routing: node %d coordinate %v does not extend parent %d's %v by port %d",
				v, c, p, pc, port)
		}
	}
	return nil
}
