package cluster

import (
	"slices"
	"sync"
	"sync/atomic"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/runtime"
	"silentspan/internal/trace"
	"silentspan/internal/wire"
)

// Node is one cluster member: a state machine owning exactly its local
// register and a cache of its neighbors' last heartbeat states — the
// message-passing realization of the paper's single-writer
// multiple-reader register (Section II-A). One goroutine at a time runs
// its rounds (the owner): in lockstep whichever Tick worker claimed its
// slot (the barrier orders one tick's writes before the next tick's
// reads), in Serve the worker owning its slot. A round (step, then
// updateQuiet) is a pure function of its inputs: tick runs it when one
// was written (dirty) or a deadline fell due (wakeAt), and skips it
// otherwise. The fields are grouped by who may touch them: fixed at
// construction, guarded by mu (everything a between-tick reader —
// gateway, admin plane, coordinator — sees), owner-only, and atomics.
type Node struct {
	id    graph.NodeID
	slot  int
	ep    Endpoint
	codec wire.Codec
	alg   runtime.Algorithm

	// mu guards every field down to qAnnEp: every write holds it, and so
	// does every read from outside the owning goroutine (gateway, admin
	// plane, coordinator). The owner reads lock-free whatever nobody else
	// writes while it runs — all but adminAddr, dataQ, changedSince and
	// the detector round.
	mu   sync.Mutex
	self runtime.State
	// The neighbor row: network size (the model's known bound), neighbor
	// ids ascending with their weights, and everything cached about each
	// neighbor (peerState), all parallel. Replaced as a whole by
	// applyRemapLocked.
	n         int
	neighbors []graph.NodeID
	weights   []graph.Weight
	nbr       []peerState
	// adminAddr is the ops-plane address carried in this node's adverts
	// (empty without an admin server).
	adminAddr string
	// dataQ holds routed packets parked at this node (in flight, or
	// stalled on an unroutable labeling); the gateway injects into it.
	dataQ     []parked
	localTick uint64
	// changedSince says the register changed since the last broadcast
	// (out-of-band writes set it between ticks).
	changedSince bool
	// Termination-detector round (quiet.go; the reports heard from
	// neighbors live in nbr): the write epoch (a Lamport clock over
	// register writes and membership events), the local tick of the last
	// activity, the report this node's frames carry, and whether it is a
	// root with an active announcement.
	qWrote   bool   // register written since the last detector round
	qEpoch   uint64 // write epoch; joins to the max epoch heard
	qLastAct uint64 // local tick of the last write or eviction
	qOut     wire.QuietReport
	qDirty   bool   // report transition pending an urgent broadcast
	qAnnRoot bool   // this node is a root with an active announcement
	qAnnEp   uint64 // epoch of the root's active announcement
	// dirty says an input of the round (step + updateQuiet) was written
	// since tick last ran one. Its writers are the ones that write such an
	// input outside the round: setState (register, qWrote),
	// applyRemapLocked (the neighbor row, epoch, quiet window),
	// forgetPeerLocked (a wiped record, epoch, quiet window), and ingest
	// when an accepted heartbeat revives a never-heard or stale entry or
	// carries a different register or quiet report. tick clears it.
	dirty bool

	// Owner-only from here to drainBuf (the coordinator sets seq,
	// advertPending and resyncPending on a joiner before anyone runs it).
	// advertPending arms the membership beacon: the node's next tick
	// opens with a KindAdvert broadcast.
	advertPending bool
	peers         []runtime.State // effective view of nbr (staleness applied) as of the last round
	// wakeAt is the first tick at which the round does something with
	// unchanged inputs — a freshness pull, a staleness expiry, the local
	// quiet window closing. step publishes the earliest per-neighbor
	// deadline and updateQuiet lowers it to the quiet window's; zero (a
	// node that never ran) is always due.
	wakeAt uint64
	// Sender-side delta stream and keep-alive cadence.
	seq           uint64        // own heartbeat counter
	anchorState   runtime.State // register as of the last self-contained broadcast
	anchorSeq     uint64
	sinceFull     int    // broadcasts since the last self-contained frame
	resyncPending bool   // some neighbor asked to re-anchor
	lastHB        uint64 // local tick of the last broadcast
	gap           uint64
	nextHB        uint64 // local tick the next keep-alive is due
	enc           bits.Builder
	decBuf        []uint64   // reusable frame-decode scratch
	rxFrame       wire.Frame // the frame being ingested, decoded in place
	drainBuf      [][]byte

	// Set once before the node runs, nil for standalone nodes: noteAnn
	// reports root-announcement transitions to the cluster, wake says
	// input waits — to the due set in lockstep, to the owning Serve
	// worker otherwise — and is also the endpoint's Wake callback,
	// writeCount counts every register write into the cluster-level total,
	// lockstep is the lockstep cluster clock (nil under Serve; see clock),
	// hbCadence (heartbeat intervals) and frameBytes (encoded frame
	// sizes) are cluster-shared histograms.
	noteAnn    func(root graph.NodeID, epoch uint64, active bool)
	wake       func()
	writeCount *atomic.Int64
	lockstep   *atomic.Uint64
	hbCadence  *ops.Histogram
	frameBytes *ops.Histogram

	// Atomics, readable from anywhere. ring is the causal flight recorder
	// (trace.go in this package, DESIGN.md §14) — nil until
	// EnableFlightRecorder arms it; behind an atomic pointer so arming
	// mid-Serve needs no worker coordination and the disabled hook path is
	// one load-and-branch. epochMirror shadows qEpoch for hooks that
	// record outside mu; it is written at every qEpoch write site. rx says
	// input waits: frames at the endpoint, or packets Launch injected.
	// wake raises it, the Serve worker clears it before draining.
	stats       nodeCounters
	ring        atomic.Pointer[trace.Ring]
	epochMirror atomic.Uint64
	rx          atomic.Bool
}

// peerState is everything a node holds about one neighbor. The owning
// goroutine is the only writer and writes every field under nd.mu, so
// the admin plane can copy a live node's records whole.
type peerState struct {
	// The neighbor-state cache: the last accepted register, the local
	// tick it was accepted at (0 = never), and the highest accepted
	// sequence number, which rejects duplicated and reordered-stale
	// heartbeats. wasStale is the entry's staleness as of the last step,
	// so fresh→stale transitions are counted exactly once per expiry and
	// ingest knows a frame that revives the entry from one that refreshes it.
	cache    runtime.State
	lastSeen uint64
	lastSeq  uint64
	wasStale bool
	// The receiver-side delta anchor: register and seq of the last
	// self-contained frame accepted — the base the sender's deltas are
	// applied against. lastResync rate-limits re-anchor requests to one
	// per neighbor per tick.
	anchor     runtime.State
	anchorSeq  uint64
	lastResync uint64
	// admin is the advert-learned ops-plane address — the decentralized
	// leg of admin discovery.
	admin string
	// q is the last accepted quiet report (quiet.go).
	q wire.QuietReport
}

// parked is a routed packet waiting at a node, with the local tick it
// arrived — the start of its stall budget.
type parked struct {
	p     wire.Packet
	since uint64
}

// NodeStats is a snapshot of one node's transport-visible activity.
type NodeStats struct {
	FramesSent, BytesSent  int
	FramesRecv, RxRejected int
	HeartbeatsApplied      int
	PacketsForwarded       int
	PacketsDropped         int
	// RegisterWrites counts δ-driven register changes (the node's
	// moves); StalenessExpiries counts fresh→stale cache transitions.
	RegisterWrites    int
	StalenessExpiries int
	// Delta-protocol accounting: self-contained anchor frames vs delta
	// frames broadcast, re-anchor requests sent, and received deltas
	// dropped for want of their anchor.
	AnchorsSent int
	DeltasSent  int
	ResyncsSent int
	DeltaMisses int
	// Membership accounting: adverts broadcast on (re)join, and neighbor
	// cache entries evicted by goodbyes or reset by adverts.
	AdvertsSent       int
	NeighborEvictions int
}

// The live counters, one per NodeStats field. The order is the order
// the metrics are registered (and so rendered) in.
const (
	cAdvertsSent = iota
	cNeighborEvictions
	cFramesSent
	cBytesSent
	cFramesRecv
	cRxRejected
	cHeartbeatsApplied
	cRegisterWrites
	cStalenessExpiries
	cPacketsForwarded
	cPacketsDropped
	cAnchorsSent
	cDeltasSent
	cResyncsSent
	cDeltaMisses
	numCounters
)

// counterMetrics names the cluster-wide metric each counter is summed
// into (registerMetrics).
var counterMetrics = [numCounters]struct{ name, help string }{
	cAdvertsSent:       {"ss_cluster_adverts_sent_total", "Membership beacons broadcast by (re)joining nodes."},
	cNeighborEvictions: {"ss_cluster_neighbor_evictions_total", "Neighbor cache entries evicted by goodbyes or reset by adverts."},
	cFramesSent:        {"ss_cluster_frames_sent_total", "Frames sent by all nodes (heartbeats + data)."},
	cBytesSent:         {"ss_cluster_bytes_sent_total", "Payload bytes sent by all nodes."},
	cFramesRecv:        {"ss_cluster_frames_received_total", "Frames delivered to all nodes."},
	cRxRejected:        {"ss_cluster_frames_rejected_total", "Frames rejected (checksum, codec, non-neighbor, stale seq)."},
	cHeartbeatsApplied: {"ss_cluster_heartbeats_applied_total", "Heartbeats accepted into neighbor caches."},
	cRegisterWrites:    {"ss_cluster_register_writes_total", "δ-driven register changes (moves) across all nodes; flat once silent."},
	cStalenessExpiries: {"ss_cluster_staleness_expiries_total", "Neighbor-cache entries that expired after being heard."},
	cPacketsForwarded:  {"ss_cluster_packets_forwarded_total", "Routed packet hops forwarded by all nodes."},
	cPacketsDropped:    {"ss_cluster_packets_dropped_total", "Routed packets dropped at nodes (hop/stall budget)."},
	cAnchorsSent:       {"ss_cluster_anchor_frames_total", "Self-contained (anchor) heartbeat frames broadcast."},
	cDeltasSent:        {"ss_cluster_delta_frames_total", "Delta heartbeat frames broadcast."},
	cResyncsSent:       {"ss_cluster_resync_frames_total", "Re-anchor requests sent."},
	cDeltaMisses:       {"ss_cluster_delta_misses_total", "Received deltas dropped for want of their anchor."},
}

// nodeCounters is the live counter set. All are atomic: the owning
// goroutine increments them mid-tick while Stats / the metrics scrape /
// the admin API read them, so observation is safe during Serve — no
// "call between ticks" footgun.
type nodeCounters [numCounters]atomic.Int64

// fold adds every counter of from into c — how retired nodes' final
// counts and the Stats() sum keep cluster-level totals monotone across
// churn.
func (c *nodeCounters) fold(from *nodeCounters) {
	for i := range c {
		c[i].Add(from[i].Load())
	}
}

// snapshot reads every counter once.
func (c *nodeCounters) snapshot() NodeStats {
	at := func(i int) int { return int(c[i].Load()) }
	return NodeStats{
		FramesSent:        at(cFramesSent),
		BytesSent:         at(cBytesSent),
		FramesRecv:        at(cFramesRecv),
		RxRejected:        at(cRxRejected),
		HeartbeatsApplied: at(cHeartbeatsApplied),
		PacketsForwarded:  at(cPacketsForwarded),
		PacketsDropped:    at(cPacketsDropped),
		RegisterWrites:    at(cRegisterWrites),
		StalenessExpiries: at(cStalenessExpiries),
		AnchorsSent:       at(cAnchorsSent),
		DeltasSent:        at(cDeltasSent),
		ResyncsSent:       at(cResyncsSent),
		DeltaMisses:       at(cDeltaMisses),
		AdvertsSent:       at(cAdvertsSent),
		NeighborEvictions: at(cNeighborEvictions),
	}
}

// Stats returns a snapshot of the node's counters, safe at any time.
func (nd *Node) Stats() NodeStats { return nd.stats.snapshot() }

func newNode(id graph.NodeID, slot, n int, neighbors []graph.NodeID, weights []graph.Weight,
	ep Endpoint, codec wire.Codec, alg runtime.Algorithm) *Node {
	return &Node{
		id: id, slot: slot, n: n,
		neighbors: neighbors, weights: weights,
		ep: ep, codec: codec, alg: alg,
		nbr:   make([]peerState, len(neighbors)),
		peers: make([]runtime.State, len(neighbors)),
	}
}

// applyRemapLocked installs a new neighbor row — the network size and
// the dense row recomputed after a membership or link change — carrying
// over the record of every neighbor that persists and starting new and
// departed-then-returned ids from zero. A recycled id is always the
// latter: its old incarnation left every row when it retired, so its seq
// filter and anchors cannot shadow the new one. Caller holds nd.mu.
func (nd *Node) applyRemapLocked(n int, neighbors []graph.NodeID, weights []graph.Weight) {
	nbr := make([]peerState, len(neighbors))
	for j, id := range neighbors {
		if k, ok := slices.BinarySearch(nd.neighbors, id); ok {
			nbr[j] = nd.nbr[k]
		}
	}
	nd.n = n
	nd.neighbors, nd.weights, nd.nbr = neighbors, weights, nbr
	nd.peers = make([]runtime.State, len(nbr))
	// A membership event is activity: bump the epoch so any quiet claim
	// built over the old topology is retracted, and restart the local
	// quiet window.
	nd.qEpoch++
	nd.epochMirror.Store(nd.qEpoch)
	nd.qLastAct = nd.clock()
	nd.qDirty = true
	nd.dirty = true
}

// clock is localTick as a reader outside the round sees it: a lockstep
// node the due set skipped would only have moved localTick, so once it
// has ticked it reads the cluster clock. Caller holds nd.mu, or owns
// the node or the cluster between ticks.
func (nd *Node) clock() uint64 {
	if nd.lockstep != nil && nd.localTick != 0 {
		return nd.lockstep.Load()
	}
	return nd.localTick
}

// ID returns the node's identity.
func (nd *Node) ID() graph.NodeID { return nd.id }

// State returns the node's current register content.
func (nd *Node) State() runtime.State {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.self
}

// setState publishes a new register content and flags the cadence
// machinery: any register write — δ-driven or out-of-band (SetState,
// Corrupt) — snaps the heartbeat back to the base interval.
func (nd *Node) setState(s runtime.State) {
	nd.mu.Lock()
	nd.self = s
	nd.changedSince = true
	nd.qWrote = true
	nd.dirty = true
	nd.recordEpoch(trace.RegWrite, trace.ClassNone, 0, 0, 0, nd.clock(), nd.qEpoch)
	nd.mu.Unlock()
	if nd.writeCount != nil {
		nd.writeCount.Add(1)
	}
}

// Inject parks a packet at this node (the gateway's entry point).
func (nd *Node) Inject(p wire.Packet) {
	nd.mu.Lock()
	now := nd.clock()
	nd.dataQ = append(nd.dataQ, parked{p, now})
	nd.recordEpoch(trace.PacketLaunch, trace.ClassData, 0, p.ID, uint64(p.Hops), now, nd.qEpoch)
	nd.mu.Unlock()
}

// receive ingests delivered frames at local time now — the free-running
// receive path (now = the current localTick: the protocol clock does not
// advance), and the first step of a tick. Control sends stay bound to
// the ticker — no heartbeat or advert leaves here, and a resync request
// goes at most once per neighbor per local tick: if arrivals triggered
// full ticks, every received frame would provoke an immediate rebroadcast
// and adjacent nodes would drive each other into a frame storm decoupled
// from Interval. Data frames are another matter: Serve forwards what
// arrived right after the receive (see Cluster.servePass).
func (nd *Node) receive(now uint64, gw *Gateway) {
	// localTick is written under the mutex: Gateway.Launch's Inject
	// reads it from outside the owning worker to date parked packets.
	nd.mu.Lock()
	nd.localTick = now
	nd.mu.Unlock()
	nd.drainBuf = nd.ep.Drain(nd.drainBuf[:0])
	for _, data := range nd.drainBuf {
		nd.ingest(data, now, gw)
	}
	// A quiet node's scratch must not pin the last burst's frames.
	clear(nd.drainBuf)
}

// tick runs one protocol tick at local time `now`: ingest delivered
// frames, run the round — one δ evaluation over the (staleness-filtered)
// cache view, then the detector — forward parked packets, and heartbeat.
//
// The round is a pure function of its inputs: it runs when one was
// written (dirty) or a deadline fell due (wakeAt), and is skipped
// otherwise, because it would recompute what it left last time — silence
// costs a quiet node no δ evaluation and no walk over its neighbor
// records. A round that writes the register raises dirty itself, so the
// tick after a write always runs one (and a node without a register,
// which every round writes, runs every tick). tick returns the next tick
// with something to do if no input arrives: now+1 while a write, a packet
// or a broadcast is pending, else the next deadline or keep-alive.
func (nd *Node) tick(now uint64, cfg *Config, gw *Gateway) uint64 {
	nd.receive(now, gw)
	// Detector-report transitions (subtree-quiet flips, announcement
	// fire/retract) count as urgent like register changes: the
	// convergecast and the flood-down travel at change speed, not at the
	// backed-off keep-alive cadence. Only the round raises either flag, so
	// a skipped round reads them in the gate's critical section.
	nd.mu.Lock()
	run := nd.dirty || now >= nd.wakeAt
	nd.dirty = false
	urgent := nd.changedSince || nd.qDirty
	nd.mu.Unlock()
	dirty := false
	if run {
		nd.step(now, cfg)
		nd.updateQuiet(now, cfg)
		nd.mu.Lock()
		urgent, dirty = nd.changedSince || nd.qDirty, nd.dirty
		nd.mu.Unlock()
	}
	parked := gw != nil && nd.pump(now, gw)
	// Heartbeat policy: immediately on a re-anchor request, after a
	// register change once minGap ticks have passed since the last frame
	// (convergence latency), and when the keep-alive falls due. The
	// keep-alive gap backs off exponentially while the register is quiet
	// (see sendHB), so a converged cluster goes nearly silent.
	// A (re)joining node precedes its first heartbeat with an advert:
	// receivers reset the id's cached state before fresh frames land.
	// Join also arms resyncPending, so the heartbeat that follows in
	// this same tick is a self-contained anchor.
	if nd.advertPending {
		nd.advertPending = false
		nd.sendAdvert()
	}
	hb := nd.resyncPending || (urgent && now-nd.lastHB >= minGap) || now >= nd.nextHB
	if hb {
		nd.sendHB(now, urgent, cfg)
	}
	if dirty || parked || (urgent && !hb) || nd.advertPending || nd.resyncPending {
		return now + 1
	}
	return min(nd.wakeAt, nd.nextHB)
}

// ingest applies one received frame. Undecodable frames — truncated,
// corrupted (checksum), foreign codec — are rejected and counted;
// control frames from non-neighbors are rejected (the model only grants
// a node its neighbors' registers); duplicated or reordered-stale
// heartbeats are rejected by sequence number. Delta frames apply
// against the sender's last self-contained anchor; a delta whose
// anchor this node never accepted (lost or reordered away) is dropped
// without refreshing the cache and answered with a resync request.
func (nd *Node) ingest(data []byte, now uint64, gw *Gateway) {
	nd.stats[cFramesRecv].Add(1)
	f := &nd.rxFrame
	buf, err := f.Decode(nd.codec, data, nd.decBuf)
	nd.decBuf = buf
	if err != nil {
		nd.stats[cRxRejected].Add(1)
		return
	}
	if f.Kind == wire.KindData {
		nd.ingestData(f, now, gw)
		return
	}
	// Every control frame must speak this cluster's codec and come from a
	// configured neighbor. Membership never derives from the wire: an
	// advert from a non-neighbor — forged, corrupted-but-decodable, or
	// ahead of this node's own topology update — is rejected outright, so
	// no frame can ever create a phantom member.
	j, ok := slices.BinarySearch(nd.neighbors, f.Src)
	if !ok || f.Alg != nd.codec.Code() {
		nd.stats[cRxRejected].Add(1)
		return
	}
	pr := &nd.nbr[j]
	switch f.Kind {
	case wire.KindDelta:
		if f.Seq <= pr.lastSeq {
			nd.stats[cRxRejected].Add(1) // duplicate or reordered-stale
			return
		}
		st := f.State
		anchor := f.BaseSeq == f.Seq
		if !anchor {
			switch {
			case pr.anchor != nil && pr.anchorSeq == f.BaseSeq:
				st, err = f.ApplyDelta(nd.codec, pr.anchor)
				if err != nil {
					// Matching anchor but an unappliable payload: the
					// sender and this node disagree on the base. Re-anchor.
					nd.stats[cRxRejected].Add(1)
					nd.requestResync(j, now)
					return
				}
			case pr.anchorSeq > f.BaseSeq:
				// A delta against an anchor this node has already replaced
				// — a straggler overtaken by a newer full frame. The newer
				// anchor carries fresher state than this delta would yield.
				nd.stats[cRxRejected].Add(1)
				return
			default:
				// The delta's anchor never arrived here (lost, or the
				// sender re-anchored while this node was partitioned). The
				// cache must not be refreshed by a frame that cannot be
				// read; ask the sender for a new self-contained frame.
				nd.stats[cDeltaMisses].Add(1)
				nd.requestResync(j, now)
				return
			}
		}
		// Under mu: the admin plane snapshots the cache from outside the
		// owning worker. The round reads the entry's freshness, register
		// and report; a keep-alive that moves none of them leaves the next
		// round skippable — lastSeen alone only postpones a deadline, which
		// the round recomputes when it gets there. A never-heard entry reads
		// stale like an expired one; an anchor may carry no register, so the
		// comparison cannot lean on Equal alone.
		nd.mu.Lock()
		if pr.wasStale || f.Q != pr.q ||
			(st == nil) != (pr.cache == nil) || (st != nil && !st.Equal(pr.cache)) {
			nd.dirty = true
		}
		pr.lastSeq = f.Seq
		pr.cache = st
		pr.lastSeen = now
		pr.q = f.Q
		if anchor {
			pr.anchor = st
			pr.anchorSeq = f.Seq
		}
		nd.mu.Unlock()
		nd.stats[cHeartbeatsApplied].Add(1)
		nd.record(trace.FrameRx, trace.ClassHeartbeat, f.Src, f.Seq, 0, now)
	case wire.KindResync:
		nd.resyncPending = true
		nd.record(trace.FrameRx, trace.ClassResync, f.Src, f.Seq, 0, now)
	case wire.KindAdvert:
		if f.Seq < pr.lastSeq {
			nd.stats[cRxRejected].Add(1) // straggler from a previous incarnation
			return
		}
		if len(f.Neighbors) > 0 {
			if _, ok := slices.BinarySearch(f.Neighbors, nd.id); !ok {
				// The digest does not list this node: the advertiser does
				// not consider us a neighbor, so its entry must not be
				// refreshed on its behalf.
				nd.stats[cRxRejected].Add(1)
				return
			}
		}
		// A fresh incarnation of the id: wipe everything cached about the
		// old one and pin the seq filter at the advertised floor, so the
		// rejoiner's early (low-seq) heartbeats are not dropped as
		// stragglers and old in-flight frames cannot shadow it.
		nd.mu.Lock()
		nd.forgetPeerLocked(j, f.Seq, f.AdminAddr)
		nd.mu.Unlock()
		nd.record(trace.FrameRx, trace.ClassAdvert, f.Src, f.Seq, 0, now)
	case wire.KindLeave:
		if f.Seq < pr.lastSeq {
			nd.stats[cRxRejected].Add(1) // goodbye overtaken by fresher frames
			return
		}
		// Cooperative eviction: drop the leaver's cached register and
		// anchors now instead of waiting out the staleness TTL.
		nd.mu.Lock()
		nd.forgetPeerLocked(j, f.Seq, "")
		nd.mu.Unlock()
		nd.record(trace.FrameRx, trace.ClassLeave, f.Src, f.Seq, 0, now)
	}
}

// ingestData takes a routed packet off the wire: delivered if this node
// is its destination, parked for the next pump otherwise.
func (nd *Node) ingestData(f *wire.Frame, now uint64, gw *Gateway) {
	if gw == nil {
		nd.stats[cRxRejected].Add(1)
		return
	}
	if f.Data.Dst == nd.id {
		// Recorded whether or not this copy wins the gateway's
		// single-shot resolution: the ring holds local truth, and the
		// chain check tolerates duplicate delivery events.
		nd.record(trace.PacketDeliver, trace.ClassData, f.Src, f.Data.ID, uint64(f.Data.Hops), now)
		gw.deliver(f.Data)
		return
	}
	nd.mu.Lock()
	nd.dataQ = append(nd.dataQ, parked{f.Data, now})
	nd.mu.Unlock()
	nd.record(trace.PacketRx, trace.ClassData, f.Src, f.Data.ID, uint64(f.Data.Hops), now)
}

// forgetPeerLocked wipes everything cached about neighbor j — register,
// anchor, resync and detector state — pins its seq filter at seq, and
// records addr as its ops-plane address. A peer (re)appearing or going
// away is a membership event: it bumps the write epoch and restarts the
// local quiet window. Caller holds nd.mu.
func (nd *Node) forgetPeerLocked(j int, seq uint64, addr string) {
	nd.nbr[j] = peerState{lastSeq: seq, admin: addr}
	nd.qEpoch++
	nd.epochMirror.Store(nd.qEpoch)
	nd.qLastAct = nd.clock()
	nd.dirty = true
	nd.stats[cNeighborEvictions].Add(1)
}

// step evaluates δ once over the staleness-filtered cache view. A
// cache entry older than StalenessTTL local ticks is presented as nil —
// the algorithms treat an unknown neighbor state as inconsistency,
// never acting on stale data — exactly as a register wiped by a fault
// would read in the shared-memory model.
func (nd *Node) step(now uint64, cfg *Config) {
	// pullAfter is the freshness-pull threshold: a quiet neighbor
	// legitimately ages up to BackoffCap plus delivery slack between
	// keep-alives, so an age beyond cap+cap/2+3 means a frame was lost.
	// Pulling a fresh anchor then repairs the cache in a couple of ticks
	// instead of waiting out the next backed-off keep-alive — without it
	// a lost keep-alive could leave a cache stale (but unexpired) long
	// enough for the cluster to look quiet in a non-silent configuration.
	pullAfter := uint64(cfg.BackoffCap + cfg.BackoffCap/2 + 3)
	// wake collects the first tick this loop would do something new over
	// the same records: a fresh entry starts being pulled (every tick from
	// then on) or expires, a never-heard one starts being pulled; an
	// expired one has nothing left to do.
	wake := ^uint64(0)
	for j := range nd.nbr {
		pr := &nd.nbr[j]
		age := now - pr.lastSeen
		stale := pr.lastSeen == 0 || age > uint64(cfg.StalenessTTL)
		switch {
		case pr.lastSeen == 0:
			wake = min(wake, max(now, pullAfter)+1)
		case !stale:
			wake = min(wake, max(now, pr.lastSeen+min(pullAfter, uint64(cfg.StalenessTTL)))+1)
		}
		if stale {
			nd.peers[j] = nil
			// Count only heard-then-expired entries, not never-heard ones.
			if !pr.wasStale && pr.lastSeen != 0 {
				nd.stats[cStalenessExpiries].Add(1)
			}
			// A neighbor this node has never heard from — a joiner's empty
			// row, or an entry wiped by a rejoiner's advert whose first
			// anchor was then lost — has no age to grow past the freshness
			// pull below, so without an explicit pull a lost anchor leaves
			// the row empty until the peer's next register change: the
			// cluster can go quiet in a non-silent configuration. Past the
			// startup grace (frames normally land within a tick or two),
			// pull an anchor outright.
			if pr.lastSeen == 0 && now > pullAfter {
				nd.requestResync(j, now)
			}
		} else {
			nd.peers[j] = pr.cache
			if age > pullAfter {
				nd.requestResync(j, now)
			}
		}
		if pr.wasStale != stale {
			nd.mu.Lock()
			pr.wasStale = stale
			nd.mu.Unlock()
		}
	}
	nd.wakeAt = wake
	v := runtime.NewView(nd.id, nd.n, nd.neighbors, nd.weights, nd.self, nd.peers)
	next := nd.alg.Step(v)
	if nd.self == nil || !next.Equal(nd.self) {
		nd.setState(next)
		nd.stats[cRegisterWrites].Add(1)
	}
}

// pump advances every parked packet one hop over the gateway's current
// labeling. Unroutable packets stall in place (the labeling may heal);
// packets exceeding the hop budget or the stall budget are dropped and
// reported. It reports whether any packet is still parked.
func (nd *Node) pump(now uint64, gw *Gateway) bool {
	nd.mu.Lock()
	q := nd.dataQ
	nd.dataQ = nil
	nd.mu.Unlock()
	var keep []parked
	for _, pk := range q {
		p := pk.p
		next, routable := gw.nextHop(nd.id, p.Dst)
		if !routable && now-pk.since <= maxHold {
			keep = append(keep, pk)
			continue
		}
		var data []byte
		send := routable && p.Hops+1 <= gw.maxHops
		if send {
			p.Hops++
			var err error
			data, err = wire.Encode(wire.Frame{Kind: wire.KindData, Src: nd.id, Data: p},
				nd.codec, &nd.enc, nil)
			send = err == nil
		}
		if !send {
			// Stalled out, over the hop budget, or unencodable. The node
			// counter follows the gateway's single-shot resolution: a
			// duplicate copy dying here after its sibling resolved is
			// invisible in both ledgers.
			if gw.drop(p) {
				nd.stats[cPacketsDropped].Add(1)
			}
			nd.record(trace.PacketDrop, trace.ClassData, 0, p.ID, uint64(p.Hops), now)
			continue
		}
		nd.ep.Send(next, data)
		nd.record(trace.PacketFwd, trace.ClassData, next, p.ID, uint64(p.Hops), now)
		nd.stats[cPacketsForwarded].Add(1)
		nd.sent(1, data)
	}
	if len(keep) > 0 {
		nd.mu.Lock()
		nd.dataQ = append(keep, nd.dataQ...)
		nd.mu.Unlock()
	}
	return len(keep) > 0
}

// sendHB runs one heartbeat emission: advance the keep-alive schedule
// (exponential back-off while quiet, instant reset on any change or
// re-anchor request) and broadcast. The back-off cap is derived from
// StalenessTTL in Config.fill so that even consecutive lost keep-alives
// cannot push a peer's observed age past the TTL.
func (nd *Node) sendHB(now uint64, urgent bool, cfg *Config) {
	if !urgent && !nd.resyncPending {
		nd.gap = min(nd.gap*2, uint64(cfg.BackoffCap))
	} else {
		nd.gap = uint64(cfg.HeartbeatEvery)
	}
	nd.gap = max(nd.gap, uint64(cfg.HeartbeatEvery))
	nd.nextHB = now + nd.gap
	if nd.hbCadence != nil && nd.lastHB != 0 {
		nd.hbCadence.Observe(float64(now - nd.lastHB))
	}
	nd.lastHB = now
	nd.mu.Lock()
	nd.changedSince = false
	nd.qDirty = false
	nd.mu.Unlock()
	nd.broadcast(now)
}

// broadcast sends the node's register to every neighbor as one frame
// (a shared byte slice: recipients only read). The frame is
// self-contained — a fresh anchor — when a neighbor asked for one, when
// no anchor exists yet, or every fullEvery broadcasts as a drift bound;
// otherwise it carries only the registers changed since the anchor,
// which for a quiet register is a bare header: the near-free keep-alive.
func (nd *Node) broadcast(now uint64) {
	nd.seq++
	f := wire.Frame{Kind: wire.KindDelta, Alg: nd.codec.Code(),
		Src: nd.id, Seq: nd.seq, State: nd.self, Q: nd.qOut}
	full := nd.resyncPending || nd.anchorState == nil || nd.self == nil ||
		nd.sinceFull >= fullEvery
	if full {
		f.BaseSeq = nd.seq
		nd.anchorState = nd.self
		nd.anchorSeq = nd.seq
		nd.sinceFull = 0
		nd.resyncPending = false
		nd.stats[cAnchorsSent].Add(1)
	} else {
		f.BaseSeq = nd.anchorSeq
		f.Base = nd.anchorState
		nd.sinceFull++
		nd.stats[cDeltasSent].Add(1)
	}
	data, err := wire.Encode(f, nd.codec, &nd.enc, nil)
	if err != nil {
		// A register the codec cannot carry is a wiring bug (foreign
		// state injected into the cluster); surface it loudly.
		panic("cluster: encode own register: " + err.Error())
	}
	nd.ep.Broadcast(nd.neighbors, data)
	// One tx event per broadcast (not per fan-out copy), mirroring the
	// frameBytes convention; every receiver's rx stitches to it.
	nd.record(trace.FrameTx, trace.ClassHeartbeat, 0, nd.seq, 0, now)
	nd.sent(len(nd.neighbors), data)
}

// sent accounts one encoded frame put on the wire as copies fan-out
// copies: the counters see every copy, the size histogram one
// observation per distinct frame.
func (nd *Node) sent(copies int, data []byte) {
	nd.stats[cFramesSent].Add(int64(copies))
	nd.stats[cBytesSent].Add(int64(copies * len(data)))
	if nd.frameBytes != nil {
		nd.frameBytes.Observe(float64(len(data)))
	}
}

// sendAdvert broadcasts the membership beacon: identity, opening seq
// (the receiver's new duplicate-filter floor), ops-plane address, and
// a digest of the neighbors this node was configured with.
func (nd *Node) sendAdvert() {
	nd.seq++
	nd.mu.Lock()
	addr := nd.adminAddr
	nd.mu.Unlock()
	f := wire.Frame{Kind: wire.KindAdvert, Alg: nd.codec.Code(),
		Src: nd.id, Seq: nd.seq, AdminAddr: addr, Neighbors: nd.neighbors}
	data, err := wire.Encode(f, nd.codec, &nd.enc, nil)
	if err != nil {
		panic("cluster: encode advert: " + err.Error())
	}
	nd.ep.Broadcast(nd.neighbors, data)
	nd.record(trace.FrameTx, trace.ClassAdvert, 0, nd.seq, 0, nd.localTick)
	nd.stats[cAdvertsSent].Add(1)
	nd.sent(len(nd.neighbors), data)
}

// requestResync asks neighbor j for a fresh self-contained frame, at
// most once per neighbor per local tick: one lost anchor can orphan a
// whole flight of deltas, and one resync heals them all.
func (nd *Node) requestResync(j int, now uint64) {
	pr := &nd.nbr[j]
	if pr.lastResync == now+1 {
		return
	}
	nd.mu.Lock()
	pr.lastResync = now + 1
	nd.mu.Unlock()
	data, err := wire.Encode(wire.Frame{Kind: wire.KindResync, Alg: nd.codec.Code(),
		Src: nd.id, Seq: pr.anchorSeq}, nd.codec, &nd.enc, nil)
	if err != nil {
		return // resync carries no state; encode cannot fail in practice
	}
	to := nd.neighbors[j]
	nd.ep.Send(to, data)
	nd.record(trace.FrameTx, trace.ClassResync, to, pr.anchorSeq, 0, now)
	nd.stats[cResyncsSent].Add(1)
	nd.sent(1, data)
}
