// Package switching implements the silent loop-free edge-switching
// algorithm of Section IV of the paper: a self-stabilizing spanning tree
// carrying the malleable redundant labels (ID, d, s) of Lemma 4.1, plus a
// distributed protocol realizing T ← T + e − f one local switch at a
// time, such that
//
//   - the parent pointers form a spanning tree in every intermediate
//     configuration (loop-freedom), and
//   - the malleable verifier never raises an alarm while a legal switch
//     is in progress (malleability).
//
// A local switch moves the initiator v from its parent w to a new parent
// w' (a neighbor across a non-tree edge, or the next node along a
// fundamental cycle). Following Fig. 1(b) it proceeds in three phases:
//
//	prune:    the initiator's request is propagated to the root, which
//	          prunes sizes top-down along the root paths to w and w'
//	          (labels (d,s) → (d,⊥); top-down keeps constraint C1), while
//	          the subtree of v prunes distances ((d,s) → (⊥,s); parent
//	          first keeps constraint C2) and acknowledges bottom-up;
//	switch:   v atomically sets parent(v) = w' and d(v) = d(w') + 1; the
//	          guard "the new parent still carries its distance" certifies
//	          w' is outside v's subtree, so the structure stays a tree —
//	          even when several switches fire concurrently;
//	relabel:  sizes are restored bottom-up along both root paths
//	          (recomputed from children), distances top-down in v's
//	          subtree; all control fields return to idle, and the system
//	          is silent again.
//
// The register holds two identities, two bounded integers, two presence
// bits and three small phase fields: O(log n) bits. A full local switch
// takes O(depth) ⊆ O(n) rounds, matching Section IV.
package switching

import (
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// SwPhase is the initiator's protocol phase.
type SwPhase uint8

// Initiator phases.
const (
	SwIdle SwPhase = iota + 1
	SwReq          // switch requested; prune waves running
	SwDone         // parent changed; restore waves running
)

// PrPhase is the ancestor size-prune control.
type PrPhase uint8

// Ancestor prune phases.
const (
	PrOff    PrPhase = iota + 1
	PrReq            // on a root path of a pending switch; waiting to prune
	PrPruned         // size discarded
)

// SubPhase is the subtree distance-prune control.
type SubPhase uint8

// Subtree prune phases.
const (
	SubOff   SubPhase = iota + 1
	SubPrune          // distance discarded; waiting for descendants
	SubAck            // whole subtree below is pruned and acknowledged
)

// State is the register of the switching algorithm.
//
// Its fields are laid out widest first — the three identities and the
// two integers, then the five one-byte fields — so the register is 48
// bytes, not 72: StepReg copies it into and out of every rule, and a
// gathered neighbor carries one. Keep that order when adding a field.
// The wire order is Schema's, by name, so the layout is free to differ.
type State struct {
	// Root, Parent, D, S are the malleable label of Lemma 4.1: root
	// identity, parent pointer, distance (HasD=false encodes d=⊥) and
	// subtree size (HasS=false encodes s=⊥).
	Root   graph.NodeID
	Parent graph.NodeID
	// SwTarget is the new parent a switch this node initiates adopts.
	SwTarget graph.NodeID
	D        int
	S        int
	HasD     bool
	HasS     bool
	// Sw drives a switch this node initiates; Pr is the ancestor prune
	// control, Sub the subtree prune control.
	Sw  SwPhase
	Pr  PrPhase
	Sub SubPhase
}

// Equal implements runtime.State.
func (s State) Equal(o runtime.State) bool {
	os, ok := o.(State)
	return ok && os == s
}

// EncodedBits implements runtime.State.
func (s State) EncodedBits() int { return Schema.EncodedBits(s.values()) }

// String implements runtime.State.
func (s State) String() string { return Schema.Format(s.values()) }

func (s State) values() runtime.Values {
	return runtime.Values{bit(s.HasD), bit(s.HasS), int64(s.Root), int64(s.Parent), int64(s.D), int64(s.S),
		int64(s.Sw), int64(s.SwTarget), int64(s.Pr), int64(s.Sub)}
}

func bit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Schema is the switching register's field list, in wire order. It is
// shared by switching, the PLS-guided BFS and the engine-driven
// MST/MDST. D and S travel raw even while HasD and HasS gate them: the
// distance-chain coherence layer reads D through the prune (HasD hides
// it from the verifier, not from the rules), so eliding gated fields
// would change the algorithm's behavior between the shared-memory and
// message-passing realizations.
var Schema = &runtime.Schema{
	Name: "switching", Code: 2,
	Fields: []runtime.Field{
		{Label: "hasD", Kind: runtime.Flag},
		{Label: "hasS", Kind: runtime.Flag},
		{Label: "root", Kind: runtime.Int},
		{Label: "par", Kind: runtime.Int},
		{Label: "d", Kind: runtime.Int, Gate: 1}, // ⊥ while HasD is clear
		{Label: "s", Kind: runtime.Int, Gate: 2}, // ⊥ while HasS is clear
		{Label: "sw", Kind: runtime.Enum, Max: int(SwDone)},
		{Label: "tgt", Kind: runtime.Int},
		{Label: "pr", Kind: runtime.Enum, Max: int(PrPruned)},
		{Label: "sub", Kind: runtime.Enum, Max: int(SubAck)},
	},
	Pack: func(st runtime.State) (runtime.Values, bool) {
		s, ok := RegOf(st)
		return s.values(), ok
	},
	Unpack: func(v runtime.Values) runtime.State {
		return State{
			HasD: v[0] != 0, HasS: v[1] != 0,
			Root: graph.NodeID(v[2]), Parent: graph.NodeID(v[3]), D: int(v[4]), S: int(v[5]),
			Sw: SwPhase(v[6]), SwTarget: graph.NodeID(v[7]), Pr: PrPhase(v[8]), Sub: SubPhase(v[9]),
		}
	},
}

// Idle reports whether all control fields are at rest.
func (s State) Idle() bool { return s.Sw == SwIdle && s.Pr == PrOff && s.Sub == SubOff }

// RegOf extracts the switching register from a runtime state.
func RegOf(s runtime.State) (State, bool) {
	if s == nil {
		return State{}, false
	}
	r, ok := s.(State)
	return r, ok
}

// SelfRoot is the full reset register of a node: a fresh singleton root
// with exact labels and idle controls.
func SelfRoot(id graph.NodeID) State {
	return State{
		Root: id, Parent: trees.None,
		HasD: true, D: 0,
		HasS: true, S: 1,
		Sw: SwIdle, SwTarget: trees.None, Pr: PrOff, Sub: SubOff,
	}
}

// StepReg evaluates the switching rules for one node and returns its next
// register. If the returned register equals self, no switching rule is
// enabled and the task layer may evaluate its own improvement rules.
//
// It reads each neighbor's register once, by position, into a
// neighborhood held on the stack up to degree hoodCap (on the heap
// above it); the rules iterate that by index, and only the parent and the
// switch target are found by identity, one binary search each. Up to
// degree hoodCap an evaluation allocates nothing. No rule copies the
// view or a gathered register: each takes the neighborhood by pointer.
func StepReg(self State, v runtime.View) State {
	var buf [hoodCap]peer
	h := gather(&self, &v, buf[:0])

	// ---- Layer 0: substrate consistency (tree construction/repair).
	s := self
	if next, acted := substrate(s, &h); acted {
		return next
	}

	// ---- Layer 1: distance-chain coherence. The D field stays
	// meaningful even while pruned (HasD=false hides it from the
	// verifier, not from the protocol): enforcing D = D_parent + 1 with
	// the n-1 cap on the raw fields erodes parent cycles made of pruned
	// nodes, which no verifier-visible rule could otherwise detect.
	if p := h.parent(); p != nil && s.D != p.D+1 {
		if p.D+1 > h.n-1 {
			return SelfRoot(h.id)
		}
		s.D = p.D + 1
		return s
	}

	// ---- Layer 2: control-field sanitization.
	if next, acted := sanitize(s, &h); acted {
		return next
	}

	// ---- Layer 2: protocol forward rules.
	if next, acted := protocol(s, &h); acted {
		return next
	}

	// ---- Layer 3: label maintenance (sizes, distances) when quiet.
	if next, acted := maintain(s, &h); acted {
		return next
	}
	return s
}

// hoodCap is the degree up to which StepReg gathers a neighborhood
// without allocating.
const hoodCap = 16

// peer is a neighbor's switching register, as gathered for one evaluation.
type peer struct {
	id graph.NodeID
	State
}

// hood is the neighborhood of one evaluation: the evaluating node's
// identity and the network size (its incorruptible constants), the
// neighbors that hold a switching register, in increasing identity
// order, and the positions among them of the node's parent and switch
// target (-1 when absent).
type hood struct {
	peers    []peer
	id       graph.NodeID
	n        int
	par, tgt int
}

// gather reads every neighbor's register once into buf, whose capacity
// it grows only when the degree exceeds it. A neighbor with no switching
// register is left out, exactly as if it were absent. The neighborhood
// is built here and returned by value: appending through a *hood would
// move buf to the heap.
func gather(self *State, v *runtime.View, buf []peer) hood {
	h := hood{peers: buf, id: v.ID, n: v.N}
	for j, u := range v.Neighbors {
		if r, ok := RegOf(v.PeerAt(j)); ok {
			h.peers = append(h.peers, peer{u, r})
		}
	}
	h.par = h.find(self.Parent)
	h.tgt = h.find(self.SwTarget)
	return h
}

// find returns the position of neighbor u in peers, or -1.
func (h *hood) find(u graph.NodeID) int {
	if u == trees.None {
		return -1
	}
	lo, hi := 0, len(h.peers)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.peers[m].id < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(h.peers) && h.peers[lo].id == u {
		return lo
	}
	return -1
}

// parent returns the gathered register of the evaluating node's parent,
// or nil.
func (h *hood) parent() *peer { return h.at(h.par) }

// target returns the gathered register of the evaluating node's switch
// target, or nil.
func (h *hood) target() *peer { return h.at(h.tgt) }

func (h *hood) at(i int) *peer {
	if i < 0 {
		return nil
	}
	return &h.peers[i]
}

// substrate enforces tree consistency: reset on structural nonsense and
// adopt strictly smaller root identities (min-ID leader election). Any
// substrate action clears the control fields.
func substrate(s State, h *hood) (State, bool) {
	cap := h.n - 1
	if s.Parent == trees.None {
		if s.Root != h.id || !s.HasD || s.D != 0 {
			return SelfRoot(h.id), true
		}
	} else {
		p := h.parent()
		if p == nil {
			return SelfRoot(h.id), true
		}
		if s.Root >= h.id || s.Root <= 0 || p.Root != s.Root {
			return SelfRoot(h.id), true
		}
		if s.HasD && (s.D < 1 || s.D > cap) {
			return SelfRoot(h.id), true
		}
	}
	// Adopt a strictly smaller root from any neighbor.
	bestI, best := -1, s.Root
	for i := range h.peers {
		p := &h.peers[i]
		if p.Root < best && p.HasD && p.D+1 <= cap {
			bestI, best = i, p.Root
		}
	}
	if bestI >= 0 {
		p := &h.peers[bestI]
		return State{
			Root: best, Parent: p.id,
			HasD: true, D: p.D + 1,
			HasS: s.HasS, S: s.S,
			Sw: SwIdle, SwTarget: trees.None, Pr: PrOff, Sub: SubOff,
		}, true
	}
	return s, false
}

// prSupport reports whether a prune request at node x is justified: x is
// a prune seed — the old parent (w) or the designated new parent (w') of
// a neighboring initiator with a pending request — or some tree child
// keeps the request alive below x.
func prSupport(h *hood, x graph.NodeID) bool {
	for i := range h.peers {
		p := &h.peers[i]
		if p.Sw == SwReq && (p.Parent == x || p.SwTarget == x) {
			return true
		}
		if p.Parent == x && p.Pr != PrOff {
			return true
		}
	}
	return false
}

// sanitize clears control fields that have lost their justification —
// the self-stabilization of the protocol layer itself after transient
// faults corrupt control fields.
func sanitize(s State, h *hood) (State, bool) {
	// Initiator sanity.
	if s.Sw != SwIdle && s.Sw != SwReq && s.Sw != SwDone {
		s.Sw, s.SwTarget = SwIdle, trees.None
		return s, true
	}
	if s.Sw == SwIdle && s.SwTarget != trees.None {
		s.SwTarget = trees.None
		return s, true
	}
	// A root in SwDone is corruption, never a protocol state: an
	// initiator reaches SwDone by adopting its target as parent, and
	// roots do not switch. Without this reset the node parks in SwDone
	// forever (completion (h) needs a parent), silently blocking label
	// maintenance — found by the model checker on the singleton graph.
	if s.Sw == SwDone && s.Parent == trees.None {
		s.Sw, s.SwTarget = SwIdle, trees.None
		return s, true
	}
	if s.Sw == SwReq {
		t := h.target()
		bad := t == nil || s.SwTarget == s.Parent || !s.HasD || !s.HasS ||
			s.Parent == trees.None || t.Root != s.Root ||
			// The target joined this initiator's own subtree-prune wave:
			// it is a descendant, so the requested switch would create a
			// cycle. Abort; the waves die out and the restores run.
			t.Sub != SubOff || t.Parent == h.id
		if bad {
			s.Sw, s.SwTarget = SwIdle, trees.None
			return s, true
		}
	}
	// Pr sanity: a pruned flag without a pruned size, or phases outside
	// the enum, are garbage.
	if s.Pr != PrOff && s.Pr != PrReq && s.Pr != PrPruned {
		s.Pr = PrOff
		return s, true
	}
	if s.Pr == PrPruned && s.HasS {
		s.Pr = PrOff
		return s, true
	}
	if s.Pr == PrReq && !s.HasS {
		// The size is already gone; account for it.
		s.Pr = PrPruned
		return s, true
	}
	if s.Pr == PrReq && s.HasS {
		// A request with no remaining justification dies out.
		if !prSupport(h, h.id) {
			s.Pr = PrOff
			return s, true
		}
	}
	// Sub sanity.
	if s.Sub != SubOff && s.Sub != SubPrune && s.Sub != SubAck {
		s.Sub = SubOff
		return s, true
	}
	if s.Sub != SubOff && s.HasD {
		s.Sub = SubOff
		return s, true
	}
	// A pruned size with no control context at all: restore directly
	// (covers faults that cleared Pr but left HasS=false).
	if !s.HasS && s.Pr == PrOff {
		if next, ok := restoreSize(s, h); ok {
			return next, true
		}
	}
	// A pruned distance with no control context: restore directly.
	if !s.HasD && s.Sub == SubOff {
		if next, ok := restoreDist(s, h); ok {
			return next, true
		}
	}
	return s, false
}

// protocol evaluates the forward rules of the three phases.
func protocol(s State, h *hood) (State, bool) {
	p := h.parent()
	// (a) Ancestor prune request joins.
	if s.Pr == PrOff && s.HasS && prSupport(h, h.id) {
		s.Pr = PrReq
		return s, true
	}
	// (b) Prune size top-down (C1: parent must already be (d,⊥)).
	if s.Pr == PrReq && s.HasS {
		if s.Parent == trees.None || p != nil && !p.HasS {
			s.HasS = false
			s.Pr = PrPruned
			return s, true
		}
	}
	// (c) Subtree prune joins (C2: parent keeps its size, which both the
	// initiator and a (⊥,s) node do). A node whose d is already ⊥ joins
	// too, changing only Sub: it cannot restore d under a pruning parent,
	// and the parent's acknowledgement (d) waits for it, so excluding it
	// would leave both nodes disabled in a silent, illegitimate
	// configuration.
	if s.Sub == SubOff && p != nil && (p.Sw == SwReq || p.Sub == SubPrune) {
		s.Sub = SubPrune
		s.HasD = false
		return s, true
	}
	// (d) Subtree acknowledgement bottom-up.
	if s.Sub == SubPrune && allChildren(h, h.id, SubAck) {
		s.Sub = SubAck
		return s, true
	}
	// (e) The switch itself.
	if s.Sw == SwReq {
		t := h.target()
		if p != nil && t != nil &&
			s.HasD && s.HasS &&
			!p.HasS && !t.HasS && // both root paths pruned down to w and w'
			t.HasD && // w' still carries d ⇒ w' is outside v's subtree
			t.Root == s.Root &&
			allChildren(h, h.id, SubAck) {
			s.Parent = s.SwTarget
			s.D = t.D + 1
			s.Sw = SwDone
			return s, true
		}
	}
	// (f) Size restore bottom-up.
	if s.Pr == PrPruned && !s.HasS {
		if next, ok := restoreSize(s, h); ok {
			return next, true
		}
	}
	// (g) Distance restore top-down.
	if s.Sub == SubAck && !s.HasD && p != nil &&
		p.HasD && p.Sub == SubOff && p.Sw != SwReq {
		s.HasD = true
		s.D = p.D + 1
		s.Sub = SubOff
		return s, true
	}
	// (h) Initiator completion.
	if s.Sw == SwDone && p != nil && p.HasS && s.HasD && s.HasS &&
		allChildren(h, h.id, SubOff) {
		s.Sw, s.SwTarget = SwIdle, trees.None
		return s, true
	}
	return s, false
}

// restoreSize recomputes s from the children if the protocol context
// permits: the prune request must be gone (no seeding initiator, no
// active child request) and every child must carry a size.
func restoreSize(s State, h *hood) (State, bool) {
	if prSupport(h, h.id) {
		return s, false
	}
	sum, complete := childSizes(h, h.id)
	if !complete {
		return s, false
	}
	s.HasS = true
	s.S = sum
	s.Pr = PrOff
	return s, true
}

// restoreDist recomputes d from the parent if available.
func restoreDist(s State, h *hood) (State, bool) {
	if s.Parent == trees.None {
		s.HasD, s.D = true, 0
		return s, true
	}
	p := h.parent()
	if p == nil || !p.HasD || p.Sub != SubOff || p.Sw == SwReq {
		return s, false
	}
	s.HasD = true
	s.D = p.D + 1
	s.Sub = SubOff
	return s, true
}

// maintain keeps distances and sizes at their exact values when the node
// and its neighborhood are quiet — the steady-state convergecast and
// broadcast of the labels.
func maintain(s State, h *hood) (State, bool) {
	if !s.Idle() {
		return s, false
	}
	// (The distance chain is maintained unconditionally in StepReg.)
	// Size is one plus the children's sum.
	if s.HasS {
		if sum, complete := childSizes(h, h.id); complete && s.S != sum {
			s.S = sum
			return s, true
		}
	}
	return s, false
}

// childSizes returns one plus the sizes of the neighbors whose parent
// pointer designates x, and whether every one of them carries a size.
func childSizes(h *hood, x graph.NodeID) (int, bool) {
	sum := 1
	for i := range h.peers {
		p := &h.peers[i]
		if p.Parent != x {
			continue
		}
		if !p.HasS {
			return sum, false
		}
		sum += p.S
	}
	return sum, true
}

// allChildren reports whether every neighbor whose parent pointer
// designates x is in subtree-prune phase sub (vacuously true without
// children).
func allChildren(h *hood, x graph.NodeID, sub SubPhase) bool {
	for i := range h.peers {
		if p := &h.peers[i]; p.Parent == x && p.Sub != sub {
			return false
		}
	}
	return true
}

// Algorithm is the standalone switching algorithm (registers are bare
// switching states). Task layers embed State instead and call StepReg.
type Algorithm struct{}

var _ runtime.Algorithm = Algorithm{}

// Name implements runtime.Algorithm.
func (Algorithm) Name() string { return "malleable-switching" }

// Register declares the switching register: its wire codec.
func (Algorithm) Register() *runtime.Schema { return Schema }

// Step implements runtime.Algorithm. A node no rule enables gets v.Self
// back, not a fresh box of the same register: a disabled δ allocates
// nothing.
func (Algorithm) Step(v runtime.View) runtime.State {
	self, ok := RegOf(v.Self)
	if !ok {
		return SelfRoot(v.ID)
	}
	if next := StepReg(self, v); next != self {
		return next
	}
	return v.Self
}

// ArbitraryState implements runtime.Algorithm.
func (Algorithm) ArbitraryState(rng *rand.Rand, v runtime.View) runtime.State {
	s := State{
		Root: graph.NodeID(rng.Intn(2*v.N) + 1),
		HasD: rng.Intn(4) != 0,
		D:    rng.Intn(v.N + 1),
		HasS: rng.Intn(4) != 0,
		S:    rng.Intn(v.N+1) + 1,
		Sw:   SwPhase(rng.Intn(4)),
		Pr:   PrPhase(rng.Intn(4)),
		Sub:  SubPhase(rng.Intn(4)),
	}
	if len(v.Neighbors) == 0 || rng.Intn(3) == 0 {
		s.Parent = trees.None
	} else {
		s.Parent = v.Neighbors[rng.Intn(len(v.Neighbors))]
	}
	if len(v.Neighbors) > 0 && rng.Intn(2) == 0 {
		s.SwTarget = v.Neighbors[rng.Intn(len(v.Neighbors))]
	}
	return s
}
