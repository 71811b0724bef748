package routing

import (
	"cmp"
	"slices"

	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

// LiveLabeler maintains a LiveLabeling incrementally while the network
// underneath it churns: a parent-pointer write invalidates and relabels
// only the subtree below the changed edge (plus the sibling subtrees
// whose ports shift), instead of rebuilding all n coordinates the way a
// fresh LiveLabeling call does. On a serving path that refreshes the
// labeling after every repair window, that turns the per-window cost
// from O(n) into O(affected).
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
//
// Topology needs no notification: the labeler reads it from its own
// graph. Every entry point first compares the graph's structural epoch
// (graph.Dense.Epoch, the counter runtime.Network and the router check
// too) with the one it last saw. On a change it forgets the pointer of
// every slot whose identity changed — vacated, recycled or new — and
// rebuilds from scratch: one O(n) pass per structural change, while a
// register write stays O(affected). A node that leaves and rejoins
// under the same identity into the same slot with no labeler call in
// between keeps its last reported pointer until SetParent reports a
// new one. Neither caller lets that happen: routing.Live folds a
// removal through RemoveNode's state notification, and the cluster's
// gateway publishes after every membership change.
type LiveLabeler struct {
	d     *graph.Dense
	epoch uint64 // the structural epoch of d the fields below agree with

	lab     *Labeling
	parents []graph.NodeID // raw parent pointer per slot (NoParent when none)
	kids    [][]int32      // credible child slots per slot, ascending child identity
	attach  []int32        // slot of the parent each slot is credibly attached under, -1 if none
	visited []uint32       // DFS pass stamps
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
	lb := &LiveLabeler{
		d:       g.Dense(),
		parents: slices.Clone(parents),
	}
	lb.rebuild()
	return lb
}

// Labeling returns the maintained labeling, brought up to the graph's
// current structure first. Register writes update it in place, but a
// structural change replaces it, so a router holding it must re-run
// Router.SetLabeling after every topology change — or simply after
// every refresh, which is what Live and the cluster's gateway do.
func (lb *LiveLabeler) Labeling() *Labeling {
	lb.sync()
	return lb.lab
}

// sync catches up with structural mutations of the graph since the
// last call: it resets to NoParent the pointer of every slot whose
// identity differs from the one the labeling saw (the slots the space
// grew by are padded in by rebuild), then rebuilds.
func (lb *LiveLabeler) sync() {
	d := lb.d
	if d.Epoch() == lb.epoch {
		return
	}
	for i, id := range lb.lab.ids {
		if id != d.ID(i) {
			lb.parents[i] = NoParent
		}
	}
	lb.rebuild()
}

// rebuild recomputes everything from the raw pointers with the
// from-scratch pass of LiveLabeling — the O(n) oracle the incremental
// path is measured against — keeping the child forest it labeled.
func (lb *LiveLabeler) rebuild() {
	slots := lb.d.Slots()
	for len(lb.parents) < slots {
		lb.parents = append(lb.parents, NoParent)
	}
	lb.epoch = lb.d.Epoch()
	lb.lab, lb.attach, lb.kids = liveForest(lb.d, lb.parents)
	lb.visited = make([]uint32, slots)
}

// SetParent records a new raw parent pointer for node v (typically
// from a StateListener observing a register write) and relabels the
// affected subtrees. Unknown nodes are ignored.
func (lb *LiveLabeler) SetParent(v graph.NodeID, raw graph.NodeID) {
	lb.sync()
	i, ok := lb.d.IndexOf(v)
	if !ok {
		return
	}
	lb.apply(int32(i), raw)
}

// detach removes slot i from kids[pi], queueing the port-shifted
// siblings (those after i's old position, with their new ports) as
// relabel tops. Rows are sorted by identity, so i is found by binary
// search.
func (lb *LiveLabeler) detach(i, pi int32) {
	ids := lb.d.IDs()
	row := lb.kids[pi]
	j, _ := slices.BinarySearchFunc(row, ids[i], func(a int32, target graph.NodeID) int {
		return cmp.Compare(ids[a], target)
	})
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
	newPi := credibleParent(lb.d, int(i), raw)
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
	if newPi >= 0 && lb.lab.recs[newPi].n >= 0 {
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
// cycles. Relabelled coordinates append their spilled ports to the
// labeling's arena; once dead words outnumber live ones, the arena is
// compacted.
func (lb *LiveLabeler) refreshFrom(top portedSlot, forceUnlabeled bool) {
	lb.pass++
	lab := lb.lab
	stack := append(lb.stack[:0], top)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x := int(e.slot)
		if lb.visited[x] == lb.pass {
			continue
		}
		lb.visited[x] = lb.pass
		pi := int(lb.attach[x])
		switch {
		case x == int(top.slot) && forceUnlabeled:
			lab.clearAt(x)
		case lb.parents[x] == trees.None:
			lab.setRoot(x, lb.d.ID(x))
		case pi >= 0 && lab.recs[pi].n >= 0 && int(e.port) <= maxPort:
			// Parent labeled (freshly, if it is inside this subtree
			// walk — parents are always popped before their kids).
			lab.place(x, pi)
			lab.writePorts(x, pi, Port(e.port))
		default:
			lab.clearAt(x)
		}
		for k, c := range lb.kids[x] {
			stack = append(stack, portedSlot{c, int32(k)})
		}
	}
	lb.stack = stack[:0]
	if lab.dead > len(lab.arena)-lab.dead {
		lab.compact()
	}
}
