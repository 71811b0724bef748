package cluster

import (
	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/trace"
	"silentspan/internal/trees"
	"silentspan/internal/wire"
)

// In-band termination detection (DESIGN.md §13): a Dijkstra–Scholten
// style convergecast over the constructed tree, piggybacked on the
// heartbeat frames the cluster already exchanges — the paper's silence
// property, announced by the cluster itself instead of the coordinator.
//
// Each node tracks a write epoch (a Lamport clock bumped by every local
// register write and membership event, joined to the maximum epoch
// heard from any fresh neighbor) and a local-quiet window (no write for
// StalenessTTL ticks, see localQuiet). A node claims subtree-quiet when it is locally
// quiet and every fresh child — a neighbor whose cached register names
// this node as parent — claims subtree-quiet at the current epoch, and
// it reports the number of nodes the claim covers. The root announces
// cluster-wide quiet when its own claim covers exactly n nodes; the
// announced epoch floods back down on the same frames. Any write
// anywhere bumps the epoch past the announcement, so stale claims and
// stale announcements are retracted within a cadence per hop — the
// detector is itself self-stabilizing.

// updateQuiet runs one detector round. It is called from tick after the
// δ evaluation, so this tick's write (if any) and the freshly
// staleness-filtered peers view are both visible.
func (nd *Node) updateQuiet(now uint64, cfg *Config) {
	nd.mu.Lock()
	if nd.qWrote {
		nd.qWrote = false
		nd.qEpoch++
		nd.qLastAct = now
	}
	// Lamport join: adopt the maximum epoch any fresh neighbor reports.
	// An announced epoch is itself evidence of that epoch, so it joins
	// too — one write anywhere eventually dominates every clock.
	e := nd.qEpoch
	for j := range nd.peers {
		if nd.peers[j] == nil {
			continue
		}
		e = max(e, nd.nbr[j].q.Epoch, nd.nbr[j].q.Ann)
	}
	nd.qEpoch = e
	nd.epochMirror.Store(e)

	sub := nd.localQuiet(now, cfg)
	if !sub {
		// The window is still open: with nothing else happening, the next
		// thing this round does differently is close it.
		nd.wakeAt = min(nd.wakeAt, nd.qLastAct+uint64(cfg.StalenessTTL))
	}
	count := uint64(1)
	parentID := routing.ParentOf(nd.self)
	var annIn uint64
	for j := range nd.peers {
		if nd.peers[j] == nil {
			continue
		}
		r := nd.nbr[j].q
		if routing.ParentOf(nd.peers[j]) == nd.id {
			// A fresh child joins the convergecast only with a claim made
			// at the current epoch: stale-epoch claims are exactly the
			// ones some write has already retracted.
			if r.Sub && r.Epoch == e {
				count += r.Count
			} else {
				sub = false
			}
		}
		if nd.neighbors[j] == parentID && r.Ann == e {
			// The parent's announcement is forwarded only while this
			// node knows no newer write than the announced epoch.
			annIn = r.Ann
		}
	}
	if !sub {
		count = 0
	}
	isRoot := nd.self != nil && parentID == trees.None
	var annOut uint64
	switch {
	case isRoot:
		// The coverage count is the fragment guard: a root whose subtree
		// does not span the whole cluster (mid-stabilization forest, or
		// a partition's local root) must not announce for everyone.
		if sub && count == uint64(nd.n) {
			annOut = e
		}
	case annIn != 0:
		annOut = annIn
	}

	out := wire.QuietReport{Epoch: e, Sub: sub, Count: count, Ann: annOut}
	prev := nd.qOut
	if out.Sub != prev.Sub || out.Ann != prev.Ann || (out.Sub && out.Count != prev.Count) {
		nd.qDirty = true
	}
	nd.qOut = out
	if out != prev {
		// Every transition of the outgoing report — including epoch
		// adoptions — is a fresh claim: the announce-coverage invariant
		// needs each node's Sub@epoch claim as a recorded event.
		subBit := uint64(0)
		if out.Sub {
			subBit = 1
		}
		nd.recordEpoch(trace.QuietReport, trace.ClassNone, parentID, 0, out.Count<<1|subBit, now, e)
	}

	annActive := isRoot && annOut != 0
	fired := annActive && (!nd.qAnnRoot || annOut != nd.qAnnEp)
	retracted := !annActive && nd.qAnnRoot
	if fired {
		nd.recordEpoch(trace.Announce, trace.ClassNone, 0, 0, out.Count, now, annOut)
	} else if retracted {
		nd.recordEpoch(trace.Retract, trace.ClassNone, 0, 0, 0, now, e)
	}
	notify := nd.noteAnn != nil && (fired || retracted)
	noteEpoch := annOut
	if !annActive {
		noteEpoch = nd.qAnnEp
	}
	nd.qAnnRoot = annActive
	if annActive {
		nd.qAnnEp = annOut
	}
	nd.mu.Unlock()
	if notify {
		nd.noteAnn(nd.id, noteEpoch, annActive)
	}
}

// localQuiet reports whether the node claims its own silence at local
// time now: a register, and no write or membership event for a quiet
// window of StalenessTTL ticks. The TTL sits comfortably above the
// freshness-pull repair horizon (~1.5·BackoffCap), so a lost frame's
// delayed repair write cannot race an already-launched quiet claim
// (DESIGN.md §13). Caller holds nd.mu.
func (nd *Node) localQuiet(now uint64, cfg *Config) bool {
	return nd.self != nil && now-nd.qLastAct >= uint64(cfg.StalenessTTL)
}

// QuietEvent is one transition of the cluster's in-band silence
// announcement, delivered on the QuietEvents channel.
type QuietEvent struct {
	// Announced is the aggregate state after the transition: true when
	// some tree root is announcing cluster-wide quiet.
	Announced bool
	// Root is the node whose announcement transition triggered the
	// event; Epoch the write epoch it announced (or retracted) at.
	Root  graph.NodeID
	Epoch uint64
}

// noteAnnounce is the node-side callback for root-announcement
// transitions. It maintains the set of currently announcing roots
// (transiently more than one during stabilization) and emits a
// QuietEvent whenever the aggregate announced flag flips.
func (c *Cluster) noteAnnounce(root graph.NodeID, epoch uint64, active bool) {
	c.annMu.Lock()
	if active {
		c.annRoots[root] = epoch
	} else {
		delete(c.annRoots, root)
	}
	ann := len(c.annRoots) > 0
	var maxE uint64
	for _, e := range c.annRoots {
		maxE = max(maxE, e)
	}
	was := c.announced.Load()
	c.announced.Store(ann)
	c.annEpoch.Store(maxE)
	c.annMu.Unlock()
	if ann != was {
		// Non-blocking: a slow (or absent) consumer must never stall a
		// node actor. The level accessors below always hold the truth.
		select {
		case c.quietCh <- QuietEvent{Announced: ann, Root: root, Epoch: epoch}:
		default:
		}
	}
}

// QuietAnnounced reports whether the in-band termination detector is
// currently announcing cluster-wide quiet: some tree root has learned
// that every node has been write-quiet for StalenessTTL ticks, at an
// epoch no write has superseded. Safe at any time, including
// mid-Serve.
func (c *Cluster) QuietAnnounced() bool { return c.announced.Load() }

// QuietEpoch returns the write epoch of the active announcement (0
// when none is active).
func (c *Cluster) QuietEpoch() uint64 { return c.annEpoch.Load() }

// QuietEvents returns the announcement transition stream. Events are
// dropped rather than blocking node rounds when the consumer lags;
// poll QuietAnnounced for the level.
func (c *Cluster) QuietEvents() <-chan QuietEvent { return c.quietCh }

// QuietFor returns the coordinator's ground truth: cluster-clock ticks
// since the last one that saw a register change — in lockstep a δ-driven
// one, in Serve any write observed at the end of worker 0's tick pass.
func (c *Cluster) QuietFor() uint64 {
	t, last := c.tick.Load(), c.lastChangeTick.Load()
	if t < last {
		return 0
	}
	return t - last
}
