package routing

import (
	"fmt"
	"slices"

	"silentspan/internal/graph"
)

// DropReason classifies why a packet could not be delivered.
type DropReason int

const (
	// DropNone: the packet was delivered.
	DropNone DropReason = iota
	// DropNoSourceCoord: the current node carries no coordinate.
	DropNoSourceCoord
	// DropNoDestCoord: the destination carries no coordinate, or lives
	// in a different coordinate space (another claimed root).
	DropNoDestCoord
	// DropDeadEnd: no neighbor is strictly closer to the destination.
	// Impossible over a complete labeling; observed on decayed ones.
	DropDeadEnd
	// DropLoop: the packet revisited the same node too many times —
	// only possible when the labeling changed under an in-flight packet.
	DropLoop
	// DropTTL: the hop budget was exhausted.
	DropTTL
)

// String names the reason.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "delivered"
	case DropNoSourceCoord:
		return "no-source-coord"
	case DropNoDestCoord:
		return "no-dest-coord"
	case DropDeadEnd:
		return "dead-end"
	case DropLoop:
		return "loop"
	case DropTTL:
		return "ttl"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Options configures a Router. The zero value is the production mode:
// greedy shortcutting over every graph edge, default hop budget.
type Options struct {
	// TreeOnly restricts forwarding to tree edges (parent/child under
	// the labeling): the packet follows the tree path exactly. Used by
	// the stretch ablation, where it isolates the contribution of the
	// non-tree shortcuts.
	TreeOnly bool
	// MaxHops is the per-packet hop budget; 0 means 2n+16.
	MaxHops int
	// RecordPaths makes Route keep the full node path of each delivery,
	// for loop-freedom assertions in tests. Off in benchmarks.
	RecordPaths bool
}

// Router forwards packets hop-by-hop over a graph using a coordinate
// labeling: each hop moves to the neighbor strictly closest (in tree
// distance computed from coordinates) to the destination. Over a
// complete labeling the tree distance decreases at every hop, so
// routing is loop-free and always delivers; over a decayed labeling
// (mid-reconvergence) packets may stall, loop, or drop — which is
// exactly what the fault-interplay experiments measure.
//
// One forwarding kernel serves every entry point: Route and Drive
// resolve a packet's endpoints to labeling indices once and then walk
// hop by hop on indices; NextHop, the cluster gateway's per-hop call,
// resolves both endpoints and takes one step of the same kernel.
//
// Route, NextHop and Drive only read the router, its labeling and its
// graph: they are safe for concurrent use while nobody calls
// SetLabeling or mutates the graph (Drive itself shards a batch over
// every core). Advance is not, because each Packet owns its own visits
// map.
type Router struct {
	g   *graph.Graph
	d   *graph.Dense
	lab *Labeling
	opt Options
	// aligned reports that, when SetLabeling ran, the labeling's index
	// space was exactly the graph's dense slot space, so forwarding can
	// read a neighbor's slot as its label index. True for every
	// labeling built over this graph (Label of a spanning tree,
	// LiveLabeling); false for labelings of foreign node sets, whose
	// neighbors resolve by identity.
	aligned bool
	// epoch is d.NodeEpoch() when SetLabeling ran. The aligned path is
	// taken only while the Dense still reports it (alignedNow): a join
	// or leave since then may have recycled a slot the labeling still
	// holds a dead node's coordinate for.
	epoch uint64
}

// NewRouter builds a router over g with the given labeling.
func NewRouter(g *graph.Graph, lab *Labeling, opt Options) *Router {
	if opt.MaxHops == 0 {
		opt.MaxHops = 2*g.N() + 16
	}
	r := &Router{g: g, d: g.Dense(), opt: opt}
	r.SetLabeling(lab)
	return r
}

// Labeling returns the router's current labeling.
func (r *Router) Labeling() *Labeling { return r.lab }

// MaxHops returns the per-packet hop budget — serving layers that carry
// packets themselves (the cluster gateway) enforce the same TTL the
// router's own Route loop would.
func (r *Router) MaxHops() int { return r.opt.MaxHops }

// SetLabeling swaps the labeling — the tree-change path: a register
// write or a topology change reaches the serving layer's labeler, the
// serving layer republishes its coordinates, and in-flight packets
// continue over the new labels. The dense layout is refreshed
// alongside, so adjacency mutated since the router was built is picked
// up with the new labels.
//
// The slot-aligned path requires a labeling built over this graph's
// own dense layout at the *current* slot assignment (same Dense, same
// NodeEpoch), and stays in force only until the next join or leave:
// after one, the labeling's indices may point at recycled slots, so
// the router takes the identity path until SetLabeling runs again.
// Edge churn never breaks alignment. Tree-built labelings align by
// identity-space equality, which node churn breaks naturally
// (holes/reordering).
func (r *Router) SetLabeling(lab *Labeling) {
	r.d = r.g.Dense()
	r.lab = lab
	r.epoch = r.d.NodeEpoch()
	if lab.d != nil {
		r.aligned = lab.d == r.d && lab.nodeEpoch == r.epoch
	} else {
		r.aligned = slices.Equal(r.d.IDs(), lab.ids)
	}
}

// alignedNow reports whether a call may take the slot-aligned path:
// the labeling was aligned when set, and no node joined or left since.
func (r *Router) alignedNow() bool { return r.aligned && r.d.NodeEpoch() == r.epoch }

// NextHop makes one greedy forwarding decision at cur for a packet
// destined to dst. ok is false when the packet cannot progress, with
// the reason; a DropDeadEnd or coordinate failure is not necessarily
// fatal for an in-flight packet (the labeling may heal), so callers
// decide whether to stall or drop.
func (r *Router) NextHop(cur, dst graph.NodeID) (graph.NodeID, DropReason, bool) {
	aligned := r.alignedNow()
	ci, di, reason := r.endpoints(cur, dst)
	if reason != DropNone {
		return 0, reason, false
	}
	next := r.hop(ci, di, aligned)
	if next < 0 {
		return 0, DropDeadEnd, false
	}
	return r.lab.ids[next], DropNone, true
}

// endpoints resolves a packet's current node and destination to
// labeling indices, or names why it cannot be forwarded at all: cur
// carries no coordinate, or dst none in cur's coordinate space.
func (r *Router) endpoints(cur, dst graph.NodeID) (ci, di int, reason DropReason) {
	recs := r.lab.recs
	ci, ok := r.lab.indexOf(cur)
	if !ok || recs[ci].n < 0 {
		return 0, 0, DropNoSourceCoord
	}
	di, ok = r.lab.indexOf(dst)
	if !ok || recs[di].n < 0 || recs[ci].root != recs[di].root {
		return 0, 0, DropNoDestCoord
	}
	return ci, di, DropNone
}

// hop is the forwarding kernel: the labeling index of ci's neighbor
// strictly closest to di in tree distance (the first such in ascending
// identity order on ties), or -1 at a dead end. ci and di are labeled
// and share one coordinate space, so every node hop returns does too.
// The aligned and identity paths differ only in how a neighbor's index
// is found: on the aligned path the labeling index IS the dense slot.
// Under TreeOnly a neighbor counts only at tree distance 1 from ci —
// its parent or a child.
func (r *Router) hop(ci, di int, aligned bool) int {
	lab := r.lab
	cur, dst := &lab.recs[ci], &lab.recs[di]
	best, bestDist := -1, lab.dist(cur, dst)
	var slots []int32
	var ids []graph.NodeID
	if aligned {
		slots = r.d.NeighborIndices(ci)
	} else {
		ids = r.g.NeighborsShared(lab.ids[ci])
	}
	for k := range len(slots) + len(ids) {
		ui, ok := 0, true
		if aligned {
			ui = int(slots[k])
		} else if ui, ok = lab.indexOf(ids[k]); !ok {
			continue
		}
		u := &lab.recs[ui]
		if u.n < 0 || u.root != cur.root || r.opt.TreeOnly && lab.dist(cur, u) != 1 {
			continue
		}
		if d := lab.dist(u, dst); d < bestDist {
			best, bestDist = ui, d
			if d == 0 {
				break // u is the destination: no neighbor can be closer
			}
		}
	}
	return best
}

// walk routes one packet from src to dst: its endpoints are resolved
// once, then it moves hop by hop on labeling indices. It returns the
// hops taken and DropNone on delivery, else why the packet was dropped;
// with path non-nil, every node reached is appended to it.
func (r *Router) walk(src, dst graph.NodeID, aligned bool, path *[]graph.NodeID) (int, DropReason) {
	if src == dst {
		return 0, DropNone
	}
	if r.opt.MaxHops <= 0 {
		return 0, DropTTL
	}
	ci, di, reason := r.endpoints(src, dst)
	if reason != DropNone {
		return 0, reason
	}
	hops := 0
	for ci != di {
		if hops >= r.opt.MaxHops {
			return hops, DropTTL
		}
		if ci = r.hop(ci, di, aligned); ci < 0 {
			return hops, DropDeadEnd
		}
		hops++
		if path != nil {
			*path = append(*path, r.lab.ids[ci])
		}
	}
	return hops, DropNone
}

// Delivery is the outcome of routing one packet.
type Delivery struct {
	Src, Dst  graph.NodeID
	Delivered bool
	Hops      int
	Reason    DropReason
	// Path is src..dst inclusive, only when Options.RecordPaths.
	Path []graph.NodeID
}

// Route sends one packet from src to dst over the current labeling.
// With a complete labeling the route is loop-free and delivers in at
// most TreeDist(src, dst) hops; shortcuts can only shorten it.
func (r *Router) Route(src, dst graph.NodeID) Delivery {
	d := Delivery{Src: src, Dst: dst}
	var path *[]graph.NodeID
	if r.opt.RecordPaths {
		d.Path = append(d.Path, src)
		path = &d.Path
	}
	d.Hops, d.Reason = r.walk(src, dst, r.alignedNow(), path)
	d.Delivered = d.Reason == DropNone
	return d
}

// Packet is an in-flight packet for stepwise routing across labeling
// refreshes (the fault-interplay experiments). Unlike Route, a Packet
// survives labeling swaps between hops, so the monotone-distance
// argument no longer holds: it tracks revisits to detect loops.
type Packet struct {
	Src, Dst graph.NodeID
	Cur      graph.NodeID
	Hops     int
	// Stalls counts windows in which the packet could not progress
	// (missing coordinates or dead ends on a decayed labeling).
	Stalls int
	// Looped reports whether the packet ever revisited a node.
	Looped bool
	// Done/Delivered/Reason: final outcome once Done.
	Done      bool
	Delivered bool
	Reason    DropReason

	visits map[graph.NodeID]int
}

// NewPacket starts a packet at src destined for dst.
func NewPacket(src, dst graph.NodeID) *Packet {
	return &Packet{Src: src, Dst: dst, Cur: src, visits: map[graph.NodeID]int{src: 1}}
}

// maxRevisits is how many times an in-flight packet may return to the
// same node before it is declared caught in a loop and dropped.
const maxRevisits = 4

// Advance moves the packet up to steps hops over the router's current
// labeling. A packet that cannot progress stalls (and may resume after
// the labeling heals); a packet revisiting a node is marked looped and
// dropped after maxRevisits visits; the router's hop budget is the TTL.
func (r *Router) Advance(p *Packet, steps int) {
	for i := 0; i < steps && !p.Done; i++ {
		if p.Cur == p.Dst {
			p.Done, p.Delivered = true, true
			return
		}
		if p.Hops >= r.opt.MaxHops {
			p.Done, p.Reason = true, DropTTL
			return
		}
		next, _, ok := r.NextHop(p.Cur, p.Dst)
		if !ok {
			p.Stalls++
			return
		}
		p.Cur = next
		p.Hops++
		p.visits[next]++
		if p.visits[next] > 1 {
			p.Looped = true
			if p.visits[next] > maxRevisits {
				p.Done, p.Reason = true, DropLoop
				return
			}
		}
	}
	if !p.Done && p.Cur == p.Dst {
		p.Done, p.Delivered = true, true
	}
}
