package cluster

import (
	"fmt"

	"silentspan/internal/graph"
	"silentspan/internal/trace"
	"silentspan/internal/wire"
)

// This file is the cluster's live-membership surface: Join, Leave, and
// Crash reshape a running cluster — including mid-Serve — without a
// restart. The flow is always coordinator-driven: membership never
// derives from the wire (an advert can only refresh a neighbor the
// topology already granted; see Node.ingest). The moving parts:
//
//   - The cluster's graph is its one topology: each mutator validates
//     before its first change, applies it to c.g, and has the gateway
//     republish its labeling (Gateway.publish), which the labeler
//     rebuilds once it sees the graph's structural epoch move.
//   - Every live node gets its neighbor row re-derived from the shared
//     dense layout, synchronously: the mutators hold memMu's write lock,
//     and every round — a Tick's or a Serve worker's pass — runs under its
//     read lock, so no node is mid-round.
//   - A departing id's last heartbeat seq is remembered (seqFloor), and
//     a rejoining incarnation opens its counter above it, so frames of
//     the old incarnation still in flight can never shadow the new one
//     behind receivers' duplicate filters.
//   - Transports that keep id-keyed directories implement evictor so a
//     departed id's entries (address, route, queued frames) are torn
//     down instead of shadowing a rejoiner.

// evictor is the optional transport hook for membership churn: Evict
// tears down everything the transport still associates with a departed
// id — its endpoint registration, its directory entry (UDP's id→addr
// map), and any frames queued on the departing side — after flushing
// sends the node made on its way out (the goodbye broadcast must
// survive the teardown).
type evictor interface {
	Evict(id graph.NodeID)
}

// Join adds node id to the running cluster, connected by the given
// edges (each must join id to a distinct existing member). The new node
// starts with an empty register — the algorithm's bootstrap rule fires
// on its first activation — and opens with a membership advert followed
// by a self-contained heartbeat, so its neighbors evict whatever they
// cached about a previous incarnation of the id before fresh state
// lands. Safe at any point: before the first tick, between ticks (the
// next Tick runs the joiner's first round with everyone else's), or
// mid-Serve (the worker owning its slot picks it up on its next pass).
// A rejected join changes nothing: every check runs before the
// transport opens the id, and the topology changes only once it has.
func (c *Cluster) Join(id graph.NodeID, edges []graph.Edge) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if err := c.g.CheckJoin(id, edges); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	ep, err := c.tr.Open(id)
	if err != nil {
		return err
	}
	c.g.AddNode(id)
	for _, e := range edges {
		c.g.MustAddEdge(e.U, e.V, e.W) // checked above: a new link to a member
	}
	c.gw.publish()
	c.admit(id, ep)
	return nil
}

// admit finishes a join once the transport has opened id and the graph
// holds it. Caller holds memMu write lock.
func (c *Cluster) admit(id graph.NodeID, ep Endpoint) {
	slot, _ := c.d.IndexOf(id)
	for len(c.nodes) <= slot {
		c.nodes = append(c.nodes, nil)
		c.due = append(c.due, never)
	}
	nd := c.newMember(id, slot, ep)
	// Open the heartbeat counter above every frame any previous
	// incarnation of this id ever sent (see seqFloor).
	nd.seq = c.seqFloor[id]
	// First tick: advert, then a self-contained anchor heartbeat — the
	// receivers just reset this id's anchor state, so the first register
	// frame must not be a delta.
	nd.advertPending = true
	nd.resyncPending = true
	nd.hbCadence = c.hbCadence
	nd.frameBytes = c.frameBytes
	if c.flightCap > 0 {
		nd.ring.Store(trace.NewRing(c.flightCap))
		nd.recordEpoch(trace.Admit, trace.ClassNone, 0, 0, 0, 0, 0)
	}
	c.nodes[slot] = nd
	if c.admin != nil {
		c.admin.add(c, nd)
	}
	// Re-row every live node, which also makes each due, the joiner
	// included. A rejoin's neighbors start its record from zero: the old
	// incarnation left their rows when it retired.
	c.remapAllLocked()
	c.joins.Add(1)
}

// Leave retires node id cooperatively: it broadcasts a goodbye (neighbors evict its cached state immediately instead of
// waiting out the staleness TTL), and its endpoint and directory
// entries are torn down.
func (c *Cluster) Leave(id graph.NodeID) error { return c.retire(id, true) }

// Crash kills node id without a goodbye: neighbors only find out when
// its cache entries age past StalenessTTL — the fault-model exit.
func (c *Cluster) Crash(id graph.NodeID) error { return c.retire(id, false) }

func (c *Cluster) retire(id graph.NodeID, goodbye bool) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	nd := c.nodeLocked(id)
	if nd == nil {
		return fmt.Errorf("cluster: no live node %d", id)
	}
	if c.d.N() == 1 {
		return fmt.Errorf("cluster: refusing to retire the last node")
	}
	// The write lock holds off every Tick and Serve worker pass, so the
	// node's state is ours from here.
	if goodbye {
		c.sendGoodbye(nd)
	}
	// Remember the final seq: a future incarnation of this id opens
	// above it, so receivers never confuse the two (the goodbye itself
	// consumed the last value).
	c.seqFloor[id] = nd.seq
	// Packets parked in its queue die with it — accounted lost in
	// transit, exactly once, through the gateway's single-shot ledger.
	if c.gw != nil {
		nd.mu.Lock()
		q := nd.dataQ
		nd.dataQ = nil
		nd.mu.Unlock()
		for _, pk := range q {
			c.gw.orphan(pk.p)
		}
	}
	// The counters must not vanish from cluster totals (a scrape would
	// see monotone counters decrease), so they fold into the departed
	// aggregate before the node is dropped.
	c.departed.fold(&nd.stats)
	// The flight recorder follows the same rule: the retirement is the
	// ring's final entry, then the ring moves to the departed list so
	// trace merges keep the leaver's causal history. No round is running,
	// so its tick and epoch are safe to read directly.
	if r := nd.ring.Load(); r != nil {
		coop := uint64(0)
		if goodbye {
			coop = 1
		}
		nd.recordEpoch(trace.Retire, trace.ClassNone, 0, 0, coop, nd.clock(), nd.qEpoch)
		evs, dropped := r.Snapshot(nil)
		c.departedTr = append(c.departedTr, trace.NodeTrace{Node: nd.id, Dropped: dropped, Events: evs})
		if len(c.departedTr) > departedTraceCap {
			c.departedTr = c.departedTr[len(c.departedTr)-departedTraceCap:]
		}
	}
	// A departing announcing root takes its announcement with it: the
	// remaining nodes' epochs bump on the remap below, so any survivor
	// root re-announces only after a fresh convergecast.
	c.noteAnnounce(id, 0, false)
	// Tear down the wire presence: directory and queue entries first
	// (flushing the goodbye still buffered on lockstep transports), then
	// the socket.
	if ev, ok := c.tr.(evictor); ok {
		ev.Evict(id)
	}
	nd.ep.Close()
	c.nodes[nd.slot] = nil
	c.due[nd.slot] = never
	if err := c.g.RemoveNode(id); err != nil {
		return err
	}
	c.gw.publish()
	c.remapAllLocked()
	if c.admin != nil {
		c.admin.remove(id)
	}
	if goodbye {
		c.leaves.Add(1)
	} else {
		c.crashes.Add(1)
	}
	return nil
}

// sendGoodbye broadcasts the leave frame on the retiring node's way
// out. No round is running (the caller holds memMu's write lock), so
// the coordinator drives its encoder directly.
func (c *Cluster) sendGoodbye(nd *Node) {
	nd.seq++
	data, err := wire.Encode(wire.Frame{Kind: wire.KindLeave, Alg: c.codec.Code(),
		Src: nd.id, Seq: nd.seq}, c.codec, &nd.enc, nil)
	if err != nil {
		return // a goodbye carries no state; encode cannot fail in practice
	}
	nd.ep.Broadcast(nd.neighbors, data)
	nd.record(trace.FrameTx, trace.ClassLeave, 0, nd.seq, 0, nd.clock())
	nd.sent(len(nd.neighbors), data)
}

// AddEdge brings link {u,v} up in the running cluster and re-rows both
// endpoint nodes.
func (c *Cluster) AddEdge(u, v graph.NodeID, w graph.Weight) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if err := c.g.AddLink(u, v, w); err != nil {
		return err
	}
	c.gw.publish()
	c.remapEndpointsLocked(u, v)
	return nil
}

// RemoveEdge takes link {u,v} down in the running cluster. The carried
// receive state for the lost neighbor is dropped on both sides; if the
// link later heals, its entries start fresh.
func (c *Cluster) RemoveEdge(u, v graph.NodeID) error {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if err := c.g.RemoveEdge(u, v); err != nil {
		return err
	}
	c.gw.publish()
	c.remapEndpointsLocked(u, v)
	return nil
}

func (c *Cluster) remapEndpointsLocked(u, v graph.NodeID) {
	for _, id := range [2]graph.NodeID{u, v} {
		if nd := c.nodeLocked(id); nd != nil {
			c.remapNodeLocked(nd)
		}
	}
}

// remapAllLocked pushes the current dense rows to every live node.
// Caller holds memMu write lock.
func (c *Cluster) remapAllLocked() {
	for _, nd := range c.nodes {
		if nd != nil {
			c.remapNodeLocked(nd)
		}
	}
}

// remapNodeLocked re-derives one node's neighbor row from the shared
// dense layout; the node runs at the next Tick to act on it. Caller
// holds memMu write lock.
func (c *Cluster) remapNodeLocked(nd *Node) {
	i, ok := c.d.IndexOf(nd.id)
	if !ok {
		return
	}
	nd.mu.Lock()
	nd.applyRemapLocked(c.d.N(), append([]graph.NodeID(nil), c.d.NeighborIDs(i)...),
		append([]graph.Weight(nil), c.d.Weights(i)...))
	nd.mu.Unlock()
	c.markDue(i)
}
