package cluster

import (
	"fmt"
	"sync"

	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/routing"
	"silentspan/internal/wire"
)

// Gateway is the cluster's serving layer: it maintains a
// routing.LiveLabeler over the nodes' live registers — refreshed at the
// end of a cluster-clock pass that saw a register write, incremental per
// changed parent pointer, and republished after every membership or
// link change — and carries routed packets end-to-end over the
// cluster's own transport: each hop is a wire data frame from one node
// actor to the next, subject to the same loss, duplication, reordering
// and corruption as the heartbeats.
// Forwarding decisions are greedy over the coordinate labeling
// (Router.NextHop); packets stall in place while the labeling is
// decayed and resume when it heals, exactly like the simulator's
// in-flight cohorts.
type Gateway struct {
	c       *Cluster
	lb      *routing.LiveLabeler
	router  *routing.Router
	maxHops int

	// labMu serializes labeling refreshes against per-hop lookups: in
	// lockstep mode refreshes happen between ticks and the lock is
	// uncontended; free-running mode genuinely needs it.
	labMu sync.RWMutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]wire.Packet // launched, not yet resolved
	// resolved marks packets whose outcome is final: resolution is
	// single-shot, so a duplicated data frame arriving (or dying) after
	// its sibling resolved the packet cannot double-count. IDs are
	// allocated monotonically, so the set is kept bounded by a
	// watermark: every ID below resolvedBelow is resolved and the map
	// holds only the sparse out-of-order tail — a long-running gateway
	// does not accrete one entry per packet forever.
	resolved      map[uint64]bool
	resolvedBelow uint64
	stats         GatewayStats
}

// GatewayStats is the data-plane accounting.
type GatewayStats struct {
	Launched  int
	Delivered int
	// Dropped packets exceeded the hop or stall budget at some node;
	// Lost packets vanished in transit (lost/corrupted frames) and were
	// reaped by Expire.
	Dropped, Lost int
	HopsTotal     int
}

// DeliveryRate returns delivered / launched (1 when nothing launched).
func (s GatewayStats) DeliveryRate() float64 {
	if s.Launched == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Launched)
}

// MeanHops returns the average hop count over delivered packets.
func (s GatewayStats) MeanHops() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.HopsTotal) / float64(s.Delivered)
}

// NewGateway attaches a gateway to the cluster. Call before the first
// tick (the gateway wires itself into every node's data path).
func NewGateway(c *Cluster) *Gateway {
	c.memMu.RLock()
	parents := make([]graph.NodeID, c.d.Slots())
	for i, nd := range c.nodes {
		if nd == nil {
			parents[i] = routing.NoParent
			continue
		}
		parents[i] = routing.ParentOf(nd.State())
	}
	lb := routing.NewLiveLabeler(c.g, parents)
	c.memMu.RUnlock()
	gw := &Gateway{
		c:             c,
		lb:            lb,
		pending:       make(map[uint64]wire.Packet),
		resolved:      make(map[uint64]bool),
		resolvedBelow: 1, // IDs start at 1
	}
	gw.router = routing.NewRouter(c.g, lb.Labeling(), routing.Options{})
	gw.maxHops = gw.router.MaxHops()
	c.gw = gw
	gw.registerMetrics(c.metrics)
	return gw
}

// publish republishes the labeling to the router after a membership or
// link change; the labeler sees the change through the graph's
// structural epoch and rebuilds. Every cluster mutator calls it once,
// under memMu, after its last change to the graph, so the lock order is
// always memMu → labMu and the labeler is synced again before anyone
// reads Labeling between ticks. A cluster without a gateway has a nil
// one, and nothing to publish.
func (gw *Gateway) publish() {
	if gw == nil {
		return
	}
	gw.labMu.Lock()
	gw.router.SetLabeling(gw.lb.Labeling())
	gw.labMu.Unlock()
}

// registerMetrics exposes the data-plane accounting: counters are
// func-backed reads of the mutex-guarded stats, taken at scrape time.
func (gw *Gateway) registerMetrics(reg *ops.Registry) {
	stat := func(field func(GatewayStats) int) func() float64 {
		return func() float64 { return float64(field(gw.Stats())) }
	}
	reg.CounterFunc("ss_gateway_packets_launched_total", "Packets injected by the gateway.", nil,
		stat(func(s GatewayStats) int { return s.Launched }))
	reg.CounterFunc("ss_gateway_packets_delivered_total", "Packets that reached their destination.", nil,
		stat(func(s GatewayStats) int { return s.Delivered }))
	reg.CounterFunc("ss_gateway_packets_dropped_total", "Packets dropped at nodes (hop/stall budget).", nil,
		stat(func(s GatewayStats) int { return s.Dropped }))
	reg.CounterFunc("ss_gateway_packets_expired_total", "Outstanding packets reaped as lost in transit (Expire).", nil,
		stat(func(s GatewayStats) int { return s.Lost }))
	reg.CounterFunc("ss_gateway_hops_total", "Hops accumulated by delivered packets.", nil,
		stat(func(s GatewayStats) int { return s.HopsTotal }))
	reg.GaugeFunc("ss_gateway_packets_outstanding", "Launched packets not yet resolved.", nil,
		func() float64 { return float64(gw.Outstanding()) })
}

// refresh folds the current registers into the incremental labeling and
// republishes it to the router. Called through observeWrites when the
// cluster's write counter moved: after a lockstep Tick, or at the end of
// Serve worker 0's tick pass. The caller holds the cluster's membership
// read lock (memMu); labMu nests inside it.
func (gw *Gateway) refresh() {
	gw.labMu.Lock()
	for _, nd := range gw.c.nodes {
		if nd == nil {
			continue
		}
		gw.lb.SetParent(nd.id, routing.ParentOf(nd.State()))
	}
	gw.router.SetLabeling(gw.lb.Labeling())
	gw.labMu.Unlock()
}

// nextHop is the per-node forwarding decision (read-locked: the
// workers running node rounds call it concurrently).
func (gw *Gateway) nextHop(cur, dst graph.NodeID) (graph.NodeID, bool) {
	gw.labMu.RLock()
	next, _, ok := gw.router.NextHop(cur, dst)
	gw.labMu.RUnlock()
	return next, ok
}

// Labeling returns the gateway's current labeling. Call it between
// ticks and membership changes: every mutator has published by then,
// so the labeler is synced with the graph and the call only reads.
func (gw *Gateway) Labeling() *routing.Labeling { return gw.lb.Labeling() }

// Launch injects one packet per pair at its source node and wakes that
// node: under Serve the source's worker forwards it at once, in a wake
// pass; in lockstep the source runs at the next Tick to forward it.
// Packets to self deliver immediately. In lockstep, call between ticks.
func (gw *Gateway) Launch(pairs []routing.Pair) {
	c := gw.c
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	for _, p := range pairs {
		gw.mu.Lock()
		gw.nextID++
		pkt := wire.Packet{ID: gw.nextID, Origin: p.Src, Dst: p.Dst}
		gw.stats.Launched++
		gw.mu.Unlock()
		nd := c.nodeLocked(p.Src)
		if p.Src == p.Dst {
			if nd != nil {
				nd.recordPacketSelf(pkt)
			}
			gw.deliver(pkt)
			continue
		}
		if nd == nil {
			panic(fmt.Sprintf("cluster: launch from unknown node %d", p.Src))
		}
		gw.mu.Lock()
		gw.pending[pkt.ID] = pkt
		gw.mu.Unlock()
		nd.Inject(pkt)
		nd.wake()
	}
}

// isResolved reports a final outcome for id (caller holds gw.mu).
func (gw *Gateway) isResolved(id uint64) bool {
	return id < gw.resolvedBelow || gw.resolved[id]
}

// resolve marks id final and advances the watermark over any now-
// contiguous resolved prefix (caller holds gw.mu).
func (gw *Gateway) resolve(id uint64) {
	gw.resolved[id] = true
	for gw.resolved[gw.resolvedBelow] {
		delete(gw.resolved, gw.resolvedBelow)
		gw.resolvedBelow++
	}
}

// deliver records a packet reaching its destination. It reports whether
// this call resolved the packet: resolution is single-shot, so a
// duplicated frame's second arrival returns false and must not be
// counted anywhere.
func (gw *Gateway) deliver(p wire.Packet) bool {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.isResolved(p.ID) {
		return false
	}
	gw.resolve(p.ID)
	delete(gw.pending, p.ID)
	gw.stats.Delivered++
	gw.stats.HopsTotal += p.Hops
	return true
}

// drop records a packet exceeding its budgets at some node. It reports
// whether this call resolved the packet — a duplicate copy dying after
// its sibling resolved contributes to no counter, so `dropped`,
// `delivered`, `expired`, and `orphaned` stay mutually exclusive.
func (gw *Gateway) drop(p wire.Packet) bool {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.isResolved(p.ID) {
		return false
	}
	gw.resolve(p.ID)
	delete(gw.pending, p.ID)
	gw.stats.Dropped++
	return true
}

// orphan reaps a packet parked at a node that is leaving the cluster:
// its queue dies with it, so the packet is accounted lost in transit —
// exactly once, even if a duplicate copy later resolves elsewhere.
func (gw *Gateway) orphan(p wire.Packet) bool {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.isResolved(p.ID) {
		return false
	}
	gw.resolve(p.ID)
	delete(gw.pending, p.ID)
	gw.stats.Lost++
	return true
}

// Outstanding returns the number of launched packets not yet resolved.
func (gw *Gateway) Outstanding() int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return len(gw.pending)
}

// Expire reaps every outstanding packet as lost — the accounting for
// frames the transport genuinely destroyed. Call once cohorts have had
// ample time to resolve.
func (gw *Gateway) Expire() int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	n := len(gw.pending)
	for id := range gw.pending {
		gw.resolve(id)
		delete(gw.pending, id)
	}
	gw.stats.Lost += n
	return n
}

// Stats returns the data-plane accounting.
func (gw *Gateway) Stats() GatewayStats {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.stats
}
