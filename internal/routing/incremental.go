package routing

import (
	"cmp"
	"slices"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// LiveLabeler maintains a LiveLabeling incrementally while the network
// underneath it churns: a parent-pointer write or a topology mutation
// invalidates and relabels only the subtree below the changed edge
// (plus the sibling subtrees whose ports shift), instead of rebuilding
// all n coordinates the way a fresh LiveLabeling call does. On a
// serving path that refreshes the labeling after every repair window,
// that turns the per-window cost from O(n) into O(affected).
//
// The labeler stores the raw parent pointer of every slot (as read out
// of the live registers, credible or not) and derives the credible
// child forest from it against the *current* graph: a pointer is a
// credible child link iff it names a live neighbor; trees.None is a
// root claim; anything else labels nothing. Cycles among parent
// pointers — routine mid-reconvergence — are detected per update (an
// attach whose ancestor chain loops back through the updated node) and
// leave exactly the cycle's subtree unlabeled, matching the from-
// scratch semantics. TestLiveLabelerMatchesRebuild pins that
// equivalence move for move.
type LiveLabeler struct {
	g *graph.Graph
	d *graph.Dense

	lab     *Labeling
	parents []graph.NodeID         // raw parent pointer per slot (NoParent when none)
	kids    [][]int32              // credible child slots per slot, ascending child identity
	attach  []int32                // slot of the parent each slot is credibly attached under, -1 if none
	slotOf  map[graph.NodeID]int32 // identity -> slot, independent of the dense layer
	visited []uint32               // DFS pass stamps
	pass    uint32
	stack   []portedSlot // reusable DFS scratch
	tops    []portedSlot // reusable affected-subtree-roots scratch
}

// portedSlot is a relabel work item: a slot together with its port
// (position in its parent's kids row) captured when it was queued, so
// the relabel never re-derives ports with per-node row scans.
type portedSlot struct {
	slot int32
	port int32 // -1 when unattached (root claims, uncredible pointers)
}

// NewLiveLabeler builds a labeler over the graph's current dense slot
// space from raw per-slot parent pointers (see ParentOf). The
// parents slice is copied.
func NewLiveLabeler(g *graph.Graph, parents []graph.NodeID) *LiveLabeler {
	d := g.Dense()
	lb := &LiveLabeler{
		g:       g,
		d:       d,
		parents: slices.Clone(parents),
	}
	lb.rebuild()
	return lb
}

// Labeling returns the maintained labeling. The pointer is stable: the
// labeler updates it in place, so a router holding it must re-run
// Router.SetLabeling after node churn (edge churn keeps the slot space
// and therefore the router's alignment intact) — or simply after every
// refresh, which is what the campaigns do.
func (lb *LiveLabeler) Labeling() *Labeling { return lb.lab }

// rebuild recomputes everything from the raw pointers — the O(n)
// fallback the incremental paths are measured against.
func (lb *LiveLabeler) rebuild() {
	d := lb.d
	slots := d.Slots()
	for len(lb.parents) < slots {
		lb.parents = append(lb.parents, NoParent)
	}
	lb.lab = LiveLabeling(lb.g, lb.parents)
	lb.kids = make([][]int32, slots)
	lb.attach = make([]int32, slots)
	lb.visited = make([]uint32, slots)
	lb.slotOf = make(map[graph.NodeID]int32, slots)
	for i := 0; i < slots; i++ {
		lb.attach[i] = -1
		if d.LiveAt(i) {
			lb.slotOf[d.ID(i)] = int32(i)
		}
	}
	for i := 0; i < slots; i++ {
		if !d.LiveAt(i) {
			continue
		}
		if pi := lb.credibleParentSlot(int32(i), lb.parents[i]); pi >= 0 {
			lb.attach[i] = pi
			lb.kids[pi] = append(lb.kids[pi], int32(i))
		}
	}
	ids := d.IDs()
	for i := range lb.kids {
		if len(lb.kids[i]) > 1 {
			slices.SortFunc(lb.kids[i], func(a, b int32) int {
				return cmp.Compare(ids[a], ids[b])
			})
		}
	}
}

// credibleParentSlot resolves raw as a credible child link for slot i:
// the slot of the named parent if it is a live neighbor, else -1.
func (lb *LiveLabeler) credibleParentSlot(i int32, raw graph.NodeID) int32 {
	if raw == NoParent || raw == trees.None {
		return -1
	}
	pi, ok := lb.d.IndexOf(raw)
	if !ok || !hasNeighborID(lb.d, int(i), raw) {
		return -1
	}
	return int32(pi)
}

// SetParent records a new raw parent pointer for node v (typically
// from a StateListener observing a register write) and relabels the
// affected subtrees. Unknown nodes are ignored.
func (lb *LiveLabeler) SetParent(v graph.NodeID, raw graph.NodeID) {
	i, ok := lb.slotOf[v]
	if !ok {
		return
	}
	lb.apply(i, raw)
}

// ApplyTopo folds one engine topology event into the labeling:
//   - edge events recheck the credibility of the two endpoints'
//     pointers (a downed link orphans the subtree hanging on it; a new
//     link can legitimize a pointer that was noise before);
//   - node events grow/vacate the slot and detach its neighborhood.
//
// Wire it with net.AddTopologyListener(lb.ApplyTopo).
func (lb *LiveLabeler) ApplyTopo(ev runtime.TopoEvent) {
	switch ev.Kind {
	case runtime.TopoAddEdge, runtime.TopoRemoveEdge:
		if i, ok := lb.slotOf[ev.U]; ok && lb.parents[i] == ev.V {
			lb.apply(i, lb.parents[i])
		}
		if i, ok := lb.slotOf[ev.V]; ok && lb.parents[i] == ev.U {
			lb.apply(i, lb.parents[i])
		}
	case runtime.TopoAddNode:
		lb.nodeAdded(ev.U)
	case runtime.TopoRemoveNode:
		lb.nodeRemoved(ev.U)
	case runtime.TopoReweigh:
		// Weights do not enter coordinates; nothing to do.
	}
}

// nodeAdded registers a joined node: grow the per-slot arrays if the
// slot space grew, claim the slot, and keep the labeling's identity
// lookup and epoch stamps in sync so routers stay aligned.
func (lb *LiveLabeler) nodeAdded(id graph.NodeID) {
	d := lb.d
	slot, ok := d.IndexOf(id)
	if !ok {
		return
	}
	for len(lb.parents) < d.Slots() {
		lb.parents = append(lb.parents, NoParent)
		lb.kids = append(lb.kids, nil)
		lb.attach = append(lb.attach, -1)
		lb.visited = append(lb.visited, 0)
		lb.lab.ids = append(lb.lab.ids, graph.NoNode)
		lb.lab.crds = append(lb.lab.crds, nil)
		lb.lab.root = append(lb.lab.root, 0)
		lb.lab.has = append(lb.lab.has, false)
	}
	lb.lab.ids[slot] = id // the labeling's owned copy of the slot space
	lb.lab.setSorted(d.Sorted())
	lb.lab.nodeEpoch = d.NodeEpoch()
	lb.slotOf[id] = int32(slot)
	if lb.lab.idx != nil {
		lb.lab.idx[id] = int32(slot)
	}
	lb.parents[slot] = NoParent
	lb.attach[slot] = -1
	lb.kids[slot] = lb.kids[slot][:0]
	lb.lab.clearAt(slot)
}

// nodeRemoved vacates a left node's slot: detach it from its parent
// (relabeling port-shifted siblings), unlabel it, and recheck every
// child — their pointers now name a dead identity and their subtrees
// go dark until the protocol re-hangs them.
func (lb *LiveLabeler) nodeRemoved(id graph.NodeID) {
	slot, ok := lb.slotOf[id]
	if !ok {
		return
	}
	delete(lb.slotOf, id)
	lb.lab.ids[slot] = graph.NoNode
	lb.lab.setSorted(false)
	delete(lb.lab.idx, id)
	lb.lab.nodeEpoch = lb.d.NodeEpoch()
	// Detach from the parent, relabeling shifted siblings.
	if pi := lb.attach[slot]; pi >= 0 {
		lb.detach(slot, pi)
		lb.attach[slot] = -1
		lb.flushTops()
	}
	lb.parents[slot] = NoParent
	lb.lab.clearAt(int(slot))
	// Orphan every child: each detaches from this slot and its subtree
	// unlabels (the raw pointer now names nothing).
	for _, c := range slices.Clone(lb.kids[slot]) {
		lb.apply(c, lb.parents[c])
	}
	lb.kids[slot] = lb.kids[slot][:0]
}

// posIn locates slot i in a kids row. Rows are sorted by identity, so
// live slots binary-search; a slot whose node was just removed (its
// identity already reads NoNode) falls back to a linear scan — that
// only happens once per node removal, on the dead node's own entry.
func (lb *LiveLabeler) posIn(row []int32, i int32) int {
	ids := lb.d.IDs()
	if id := ids[i]; id != graph.NoNode {
		j, ok := slices.BinarySearchFunc(row, id, func(a int32, target graph.NodeID) int {
			return cmp.Compare(ids[a], target)
		})
		if ok && row[j] == i {
			return j
		}
	}
	return slices.Index(row, i)
}

// detach removes slot i from kids[pi], queueing the port-shifted
// siblings (those after i's old position, with their new ports) as
// relabel tops.
func (lb *LiveLabeler) detach(i, pi int32) {
	row := lb.kids[pi]
	j := lb.posIn(row, i)
	if j < 0 {
		return
	}
	lb.kids[pi] = slices.Delete(row, j, j+1)
	for k := j; k < len(lb.kids[pi]); k++ {
		lb.tops = append(lb.tops, portedSlot{lb.kids[pi][k], int32(k)})
	}
}

// attachAt inserts slot i into kids[pi] in identity order, queueing the
// port-shifted siblings (those after the insertion point). It returns
// i's port.
func (lb *LiveLabeler) attachAt(i, pi int32) int32 {
	ids := lb.d.IDs()
	row := lb.kids[pi]
	j, _ := slices.BinarySearchFunc(row, i, func(a, b int32) int {
		return cmp.Compare(ids[a], ids[b])
	})
	lb.kids[pi] = slices.Insert(row, j, i)
	for k := j + 1; k < len(lb.kids[pi]); k++ {
		lb.tops = append(lb.tops, portedSlot{lb.kids[pi][k], int32(k)})
	}
	return int32(j)
}

// apply is the core primitive: record raw as slot i's pointer, rewire
// the credible forest, and relabel exactly the affected subtrees.
func (lb *LiveLabeler) apply(i int32, raw graph.NodeID) {
	newPi := lb.credibleParentSlot(i, raw)
	oldPi := lb.attach[i]
	if raw == lb.parents[i] && newPi == oldPi {
		return // nothing observable changed
	}
	lb.parents[i] = raw
	if oldPi >= 0 {
		lb.detach(i, oldPi)
	}
	lb.attach[i] = newPi
	port := int32(-1)
	if newPi >= 0 {
		port = lb.attachAt(i, newPi)
	}
	// Cycle check: if the new parent's credible ancestor chain runs
	// back through i, the stale labels above i must not leak into i's
	// subtree — the whole loop is rootless and goes unlabeled, exactly
	// as a from-scratch labeling would leave it.
	cycle := false
	if newPi >= 0 && lb.lab.has[newPi] {
		for cur, steps := newPi, 0; cur >= 0 && steps <= len(lb.attach); cur, steps = lb.attach[cur], steps+1 {
			if cur == i {
				cycle = true
				break
			}
		}
	}
	lb.refreshFrom(portedSlot{i, port}, cycle)
	lb.flushTops()
}

// flushTops relabels every queued top (except entries already handled
// by an explicit refreshFrom call this round).
func (lb *LiveLabeler) flushTops() {
	for len(lb.tops) > 0 {
		t := lb.tops[len(lb.tops)-1]
		lb.tops = lb.tops[:len(lb.tops)-1]
		lb.refreshFrom(t, false)
	}
}

// refreshFrom recomputes the labels of top's entire subtree from top's
// (already current) parent label downward. Every work item carries its
// port, captured when queued (tops) or while enumerating the parent's
// kids row (descendants), so no per-node row search happens — one
// relabel is O(subtree), not O(subtree · degree). forceUnlabeled
// severs top from its parent label (the cycle case). The visited stamp
// makes the walk terminate even when the child lists contain pointer
// cycles.
func (lb *LiveLabeler) refreshFrom(top portedSlot, forceUnlabeled bool) {
	lb.pass++
	lab := lb.lab
	d := lb.d
	stack := append(lb.stack[:0], top)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x := e.slot
		if lb.visited[x] == lb.pass {
			continue
		}
		lb.visited[x] = lb.pass
		switch {
		case x == top.slot && forceUnlabeled:
			lab.clearAt(int(x))
		case lb.parents[x] == trees.None:
			lab.setAt(int(x), Coords{}, d.ID(int(x)))
		default:
			pi := lb.attach[x]
			if pi >= 0 && lab.has[pi] {
				// Parent labeled (freshly, if it is inside this subtree
				// walk — parents are always popped before their kids).
				base := lab.crds[pi]
				cc := make(Coords, len(base)+1)
				copy(cc, base)
				cc[len(base)] = Port(e.port)
				lab.setAt(int(x), cc, lab.root[pi])
			} else {
				lab.clearAt(int(x))
			}
		}
		for k, c := range lb.kids[x] {
			stack = append(stack, portedSlot{c, int32(k)})
		}
	}
	lb.stack = stack[:0]
}
