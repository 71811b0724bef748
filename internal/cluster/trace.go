package cluster

import (
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/trace"
	"silentspan/internal/wire"
)

// This file is the cluster side of the causal flight recorder
// (internal/trace, DESIGN.md §14): per-node event rings armed by
// EnableFlightRecorder and drained by FlightTraces / the /gettrace
// admin route. The rings hang off each node behind an atomic pointer,
// so the disabled path is one predictable load-and-branch per hook and
// enabling mid-run needs no coordination with the running rounds.

// defaultFlightCap is the per-node ring capacity when the caller
// passes none: 8192 events ≈ a few hundred ticks of a busy node.
const defaultFlightCap = 1 << 13

// departedTraceCap bounds the retained final rings of retired nodes so
// a long churn campaign cannot grow the coordinator without bound.
const departedTraceCap = 256

// EnableFlightRecorder arms the causal flight recorder: every live
// node gets a ring of the given capacity (defaultFlightCap when ≤0),
// nodes joining later get one on admit, and retiring nodes' final
// rings are retained (bounded) for post-churn merges. Safe at any
// time, including mid-Serve; idempotent except that the new capacity
// applies only to nodes without a ring yet.
func (c *Cluster) EnableFlightRecorder(capacity int) {
	if capacity <= 0 {
		capacity = defaultFlightCap
	}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if c.flightCap == 0 {
		// Registered once, and only when the recorder is armed: a
		// recorder-free cluster's exposition stays byte-identical.
		c.metrics.CounterFunc("ss_trace_dropped_total",
			"Flight-recorder events lost to ring overwrites.", nil, c.flightDropped)
	}
	c.flightCap = capacity
	for _, nd := range c.nodes {
		if nd != nil && nd.ring.Load() == nil {
			nd.ring.Store(trace.NewRing(capacity))
		}
	}
}

// flightDropped sums overwrite losses across live rings and retained
// departed rings — the ss_trace_dropped_total collector.
func (c *Cluster) flightDropped() float64 {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	var t uint64
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if r := nd.ring.Load(); r != nil {
			t += r.Dropped()
		}
	}
	for i := range c.departedTr {
		t += c.departedTr[i].Dropped
	}
	return float64(t)
}

// FlightTraces snapshots every live node's ring plus the retained
// rings of retired nodes — the input to trace.Merge. Safe at any time.
func (c *Cluster) FlightTraces() []trace.NodeTrace {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	out := make([]trace.NodeTrace, 0, len(c.nodes)+len(c.departedTr))
	out = append(out, c.departedTr...)
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if r := nd.ring.Load(); r != nil {
			evs, dropped := r.Snapshot(nil)
			out = append(out, trace.NodeTrace{Node: nd.id, Dropped: dropped, Events: evs})
		}
	}
	return out
}

// DepartedFlightTraces returns the retained final rings of retired
// nodes (most recent departures last).
func (c *Cluster) DepartedFlightTraces() []trace.NodeTrace {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return append([]trace.NodeTrace(nil), c.departedTr...)
}

// record appends one event to the node's ring, stamping the mirrored
// write epoch — the hook for call sites outside nd.mu. A nil ring
// (recorder disabled) costs exactly this load and branch.
func (nd *Node) record(k trace.Kind, cl trace.Class, peer graph.NodeID, seq, arg, tick uint64) {
	if r := nd.ring.Load(); r != nil {
		r.Record(trace.Event{Kind: k, Class: cl, Node: nd.id, Peer: peer,
			Seq: seq, Arg: arg, Epoch: nd.epochMirror.Load(), Tick: tick,
			Wall: time.Now().UnixNano()})
	}
}

// recordEpoch is record for call sites that hold nd.mu (or otherwise
// own the detector state) and know the exact epoch.
func (nd *Node) recordEpoch(k trace.Kind, cl trace.Class, peer graph.NodeID, seq, arg, tick, epoch uint64) {
	if r := nd.ring.Load(); r != nil {
		r.Record(trace.Event{Kind: k, Class: cl, Node: nd.id, Peer: peer,
			Seq: seq, Arg: arg, Epoch: epoch, Tick: tick,
			Wall: time.Now().UnixNano()})
	}
}

// recordPacketSelf records a self-addressed packet's launch and
// delivery on the origin's ring: the gateway resolves these without
// the actor ever seeing the packet, so the chain (launch → deliver at
// zero hops, no frame edge) is written here.
func (nd *Node) recordPacketSelf(p wire.Packet) {
	if nd.ring.Load() == nil {
		return
	}
	nd.mu.Lock()
	tick, epoch := nd.clock(), nd.qEpoch
	nd.mu.Unlock()
	nd.recordEpoch(trace.PacketLaunch, trace.ClassData, 0, p.ID, 0, tick, epoch)
	nd.recordEpoch(trace.PacketDeliver, trace.ClassData, 0, p.ID, 0, tick, epoch)
}
