package graph

import "slices"

// NoNode marks a vacated slot in a dense index space: the identity of a
// node that has been removed. Real identities are drawn from {1..n^c}
// (strictly positive), so the sentinel can never collide.
const NoNode NodeID = -1

// Dense is the graph's adjacency store, index-addressed: node
// identities are mapped to slots 0..Slots()-1, and each slot's row
// holds its neighbour identities in ascending order with their slots
// and edge weights in parallel. The hot layers above the graph (the
// simulation engine's register file, the router's forwarding loop) read
// it directly: every accessor below returns shared read-only slices and
// performs no allocation.
//
// A Dense passes through three states, in one direction:
//   - building: before the graph's first Dense() call, each slot owns
//     one row, edited in place by the Graph mutators;
//   - packed: the first Dense() fixes the slot assignment (ascending
//     identity order, no holes, both epochs 0) and packs the rows into
//     CSR arrays — one shared arc array per field, sliced per slot;
//   - unpacked: the first structural mutation after that clones every
//     row out of the CSR, and each slot owns its row again, for good.
//
// Weight updates patch arcs in place in every state. Structural
// mutations after the first Dense() never move existing slots — a
// removed node vacates its slot (ids[slot] becomes NoNode) and a later
// AddNode reuses it — so index-addressed layers (register files,
// labelings, routers) stay valid across churn as long as they re-check
// liveness. Every structural mutation bumps Epoch, so layers holding
// derived structures can detect staleness exactly.
type Dense struct {
	ids  []NodeID         // ids[i] is the identity of slot i; NoNode marks holes
	idx  map[NodeID]int32 // identity -> slot; nil while ids ascend with no holes
	free []int32          // vacated slots available for reuse
	live int              // number of live (non-hole) slots

	rows []denseRow // per-slot rows; nil while packed

	packed bool     // the rows live in the CSR arrays below
	off    []int32  // CSR offsets: the arcs of slot i live in [off[i], off[i+1])
	nbrIDs []NodeID // neighbour identities, ascending per slot
	nbrIdx []int32  // neighbour slots parallel to nbrIDs
	wts    []Weight // incident edge weights parallel to nbrIDs

	fixed     bool   // Dense() has fixed the slot assignment
	epoch     uint64 // bumped on every structural mutation
	nodeEpoch uint64 // bumped only when the slot assignment changes
}

// denseRow is one slot's adjacency row: neighbour identities in
// ascending order, with parallel slot and weight arrays.
type denseRow struct {
	ids []NodeID
	idx []int32
	wts []Weight
}

// Dense returns the graph's adjacency store, fixing its slot assignment
// and packing it on first use; later mutations maintain it in place.
// The returned value and every slice reachable from it are shared and
// read-only.
func (g *Graph) Dense() *Dense {
	if !g.d.fixed {
		g.d.pack(g.nodes)
	}
	return &g.d
}

// pack renumbers the slots in ascending identity order with no holes
// and lays the rows out as CSR arrays in one O(m) pass. nodes is the
// graph's sorted identity list.
func (d *Dense) pack(nodes []NodeID) {
	var slotOf []int32 // old slot -> new slot; nil when they coincide
	if d.idx != nil {
		slotOf = make([]int32, len(d.ids))
		for k, v := range nodes {
			slotOf[d.idx[v]] = int32(k)
		}
	}
	arcs := 0
	for i := range d.rows {
		arcs += len(d.rows[i].ids)
	}
	off := make([]int32, len(nodes)+1)
	nbrIDs := make([]NodeID, 0, arcs)
	nbrIdx := make([]int32, 0, arcs)
	wts := make([]Weight, 0, arcs)
	for k, v := range nodes {
		r := &d.rows[k]
		if slotOf != nil {
			r = &d.rows[d.idx[v]]
		}
		nbrIDs = append(nbrIDs, r.ids...)
		wts = append(wts, r.wts...)
		if slotOf == nil {
			nbrIdx = append(nbrIdx, r.idx...)
		} else {
			for _, j := range r.idx {
				nbrIdx = append(nbrIdx, slotOf[j])
			}
		}
		off[k+1] = int32(len(nbrIDs))
	}
	*d = Dense{ids: slices.Clone(nodes), live: len(nodes), fixed: true,
		packed: true, off: off, nbrIDs: nbrIDs, nbrIdx: nbrIdx, wts: wts}
}

// unpack gives every slot its own row again, ahead of the first
// structural mutation after packing. The rows are cloned out of the CSR
// as capacity-capped windows of one copy per field: an insertion moves
// only the row it grows, and untouched rows keep the CSR's locality.
func (d *Dense) unpack() {
	if !d.packed {
		return
	}
	ids, idx, wts := slices.Clone(d.nbrIDs), slices.Clone(d.nbrIdx), slices.Clone(d.wts)
	d.rows = make([]denseRow, len(d.ids))
	for i := range d.rows {
		a, b := d.off[i], d.off[i+1]
		d.rows[i] = denseRow{ids: ids[a:b:b], idx: idx[a:b:b], wts: wts[a:b:b]}
	}
	d.packed = false
	d.off, d.nbrIDs, d.nbrIdx, d.wts = nil, nil, nil, nil
}

// N returns the number of live nodes.
func (d *Dense) N() int { return d.live }

// Slots returns the size of the slot space (live nodes plus vacated
// slots). Index-addressed layers size their parallel arrays by Slots
// and guard per-slot work with LiveAt.
func (d *Dense) Slots() int { return len(d.ids) }

// LiveAt reports whether slot i currently holds a node.
func (d *Dense) LiveAt(i int) bool { return d.ids[i] != NoNode }

// Epoch returns the structural-mutation counter: zero for a
// never-churned graph, bumped once per AddNode/RemoveNode/AddEdge/
// RemoveEdge after the first Dense(). Weight updates do not count —
// they patch arcs in place without changing the shape.
func (d *Dense) Epoch() uint64 { return d.epoch }

// NodeEpoch counts slot-assignment changes only: node joins and
// leaves, not edge churn. A layer whose parallel arrays are indexed by
// slot (a labeling, a register file) stays index-compatible with the
// Dense exactly while NodeEpoch is unchanged.
func (d *Dense) NodeEpoch() uint64 { return d.nodeEpoch }

// Sorted reports whether slot order coincides with identity order with
// no holes — true until node churn first vacates or reuses a slot out
// of order. Layers that binary-search identity spaces check this to
// decide between search and map lookup.
func (d *Dense) Sorted() bool { return d.idx == nil }

// IDs returns the identities indexed by slot; vacated slots read
// NoNode. The slice is shared and read-only, and is only ascending
// while Sorted() holds.
func (d *Dense) IDs() []NodeID { return d.ids }

// ID returns the identity of slot i (NoNode for holes).
func (d *Dense) ID(i int) NodeID { return d.ids[i] }

// IndexOf returns the slot of identity v; ok is false if v is not a
// live node. While the slots are sorted it first tries the slot that
// consecutively numbered identities would give v, then binary-searches.
func (d *Dense) IndexOf(v NodeID) (int, bool) {
	if d.idx != nil {
		i, ok := d.idx[v]
		return int(i), ok
	}
	if len(d.ids) == 0 {
		return 0, false
	}
	if i := int(v - d.ids[0]); i >= 0 && i < len(d.ids) && d.ids[i] == v {
		return i, true
	}
	return slices.BinarySearch(d.ids, v)
}

// row returns slot i's adjacency row.
func (d *Dense) row(i int) (ids []NodeID, idx []int32, wts []Weight) {
	if d.packed {
		a, b := d.off[i], d.off[i+1]
		return d.nbrIDs[a:b], d.nbrIdx[a:b], d.wts[a:b]
	}
	r := &d.rows[i]
	return r.ids, r.idx, r.wts
}

// Degree returns the degree of slot i.
func (d *Dense) Degree(i int) int {
	ids, _, _ := d.row(i)
	return len(ids)
}

// NeighborIDs returns the neighbor identities of slot i in increasing
// order. The slice is shared and read-only, valid until the next
// structural mutation.
func (d *Dense) NeighborIDs(i int) []NodeID {
	ids, _, _ := d.row(i)
	return ids
}

// NeighborIndices returns the slots of the neighbors of slot i,
// parallel to NeighborIDs(i). The slice is shared and read-only. It is
// ascending only while Sorted() holds — after slot reuse, neighbor
// order follows identity order, not slot order.
func (d *Dense) NeighborIndices(i int) []int32 {
	_, idx, _ := d.row(i)
	return idx
}

// Weights returns the incident edge weights of slot i, parallel to
// NeighborIDs(i). The slice is shared and read-only.
func (d *Dense) Weights(i int) []Weight {
	_, _, wts := d.row(i)
	return wts
}

// arc returns the slot of u and the position of v in u's row; ok is
// false if {u,v} is not an edge.
func (d *Dense) arc(u, v NodeID) (i, j int, ok bool) {
	if i, ok = d.IndexOf(u); !ok {
		return 0, 0, false
	}
	ids, _, _ := d.row(i)
	j, ok = slices.BinarySearch(ids, v)
	return i, j, ok
}

// setWeight patches the weight of the existing edge {u,v} in place, in
// both rows.
func (d *Dense) setWeight(u, v NodeID, w Weight) {
	i, j, _ := d.arc(u, v)
	d.Weights(i)[j] = w
	i, j, _ = d.arc(v, u)
	d.Weights(i)[j] = w
}

// mutate unpacks the rows and stamps one structural mutation.
func (d *Dense) mutate() {
	d.unpack()
	d.epoch++
}

// unsort switches identity lookups from search to the map, once slot
// order first departs from identity order.
func (d *Dense) unsort() {
	if d.idx != nil {
		return
	}
	d.idx = make(map[NodeID]int32, len(d.ids))
	for i, v := range d.ids {
		d.idx[v] = int32(i)
	}
}

// addNode gives identity id a slot, reusing a vacated slot when one
// exists.
func (d *Dense) addNode(id NodeID) {
	d.mutate()
	d.nodeEpoch++
	d.live++
	if len(d.free) > 0 {
		slot := d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
		d.ids[slot] = id
		d.idx[id] = slot // a hole exists, so the map does too
		return
	}
	slot := len(d.ids)
	if slot > 0 && d.ids[slot-1] >= id {
		d.unsort()
	}
	d.ids = append(d.ids, id)
	d.rows = append(d.rows, denseRow{})
	if d.idx != nil {
		d.idx[id] = int32(slot)
	}
}

// removeNode vacates identity id's slot. The caller (Graph.RemoveNode)
// has already removed every incident edge, so the slot's row is empty.
func (d *Dense) removeNode(id NodeID) {
	d.mutate()
	d.nodeEpoch++
	d.live--
	d.unsort()
	i := d.idx[id]
	d.ids[i] = NoNode
	delete(d.idx, id)
	d.free = append(d.free, i)
}

// addEdge inserts the arc pair of the new edge {u,v} with weight w.
func (d *Dense) addEdge(u, v NodeID, w Weight) {
	d.mutate()
	iu, _ := d.IndexOf(u)
	iv, _ := d.IndexOf(v)
	d.rows[iu].insert(v, int32(iv), w)
	d.rows[iv].insert(u, int32(iu), w)
}

func (r *denseRow) insert(nbr NodeID, slot int32, w Weight) {
	j, _ := slices.BinarySearch(r.ids, nbr)
	r.ids = slices.Insert(r.ids, j, nbr)
	r.idx = slices.Insert(r.idx, j, slot)
	r.wts = slices.Insert(r.wts, j, w)
}

// removeEdge deletes the arc pair of the existing edge {u,v}.
func (d *Dense) removeEdge(u, v NodeID) {
	d.mutate()
	d.removeArc(u, v)
	d.removeArc(v, u)
}

func (d *Dense) removeArc(u, v NodeID) {
	i, j, _ := d.arc(u, v)
	r := &d.rows[i]
	r.ids = slices.Delete(r.ids, j, j+1)
	r.idx = slices.Delete(r.idx, j, j+1)
	r.wts = slices.Delete(r.wts, j, j+1)
}
