// Package runtime implements the state model of self-stabilization used
// by the paper (Section II-A): each process is a node of a connected graph
// with a single-writer multiple-reader register; in one atomic step a node
// (1) reads its own register and those of its neighbors, (2) applies the
// transition function δ, and (3) writes its register. Which enabled node
// steps is under the control of a scheduler; the package provides the
// unfair scheduler the paper assumes, and friends.
//
// The package also provides the paper's round accounting (a round is the
// shortest execution prefix in which every node enabled at its start has
// stepped or become disabled), silence detection (no node enabled),
// transient-fault injection, and invariant monitors used to validate
// claims such as loop-freedom during edge switches (Section IV).
//
// # Engine internals
//
// The engine is a dense register file: node identities are mapped once
// to contiguous indices 0..n-1 (graph.Dense), and registers, dirty
// flags, and round-pending flags live in index-addressed slices. Views
// are allocation-free — neighbors, their registers, and the incident
// edge weights are served from shared slices parallel to the graph's
// sorted neighbor slice. The enabled set is maintained incrementally
// under the invariant: for every node not on the dirty worklist, its
// EnabledSet membership equals its true enabledness. A register write
// at v pushes only v and its neighbors onto the worklist (enabledness
// only depends on the 1-hop neighborhood), and the worklist is drained
// before any read of the set, so one move costs O(deg) instead of the
// O(n) per-activation scan of a map-backed engine.
//
// A worklist longer than one shard is evaluated on GOMAXPROCS workers
// (ParallelFor, shared with the cluster's lockstep Tick), then settled
// into the set and the round frontier in worklist order; a shorter one
// is drained in one pass on the caller's goroutine and allocates
// nothing. No result, trace or register depends on the worker count.
package runtime

import (
	"fmt"
	"math/bits"
	"math/rand"
	goruntime "runtime"
	"slices"

	"silentspan/internal/graph"
)

// State is the content of a node's register. Implementations must be
// immutable value-like types: Step never mutates a state it reads, it
// returns either a new state or the view's own Self unchanged. A
// register type declares its fields once in a Schema, from which its
// EncodedBits, its String and its wire codec are derived.
type State interface {
	// Equal reports whether two register contents are identical. A node
	// is enabled iff δ applied to its view yields a non-Equal state.
	Equal(State) bool
	// EncodedBits returns the exact size in bits of the register content
	// under the natural encoding (IDs and distances as ceil(log2)-width
	// integers, label bit strings at their real length). This backs the
	// space-complexity experiments.
	EncodedBits() int
	// String renders the state for traces.
	String() string
}

// View is everything a node may legally consult during one atomic step:
// its incorruptible constants (identity, incident edge weights, the bound
// on n), its own register, and its neighbors' registers.
//
// Views are allocation-free: neighbor registers are read either straight
// out of the engine's register file through precomputed dense indices
// or from a snapshot slice parallel to Neighbors (NewView); weights come
// from a slice parallel to Neighbors too.
//
// A View is 19 words, so its accessors take a pointer: a rule that reads
// its neighborhood through them copies nothing. Algorithm.Step still
// takes the view by value on purpose. Step is an interface call, and a
// *View passed through one escapes to the heap; by value, every δ
// allocates nothing.
type View struct {
	// ID is the node's own identity (incorruptible constant).
	ID graph.NodeID
	// N is the number of network nodes, known to all nodes (the classic
	// assumption bounding distances and ID widths; the paper assumes
	// IDs in {1..n^c} and O(log n)-bit weights).
	N int
	// Neighbors lists neighbor identities in increasing order. The slice
	// is shared with the graph layer: read-only for algorithms.
	Neighbors []graph.NodeID
	// Self is the node's own register content.
	Self State

	// weights is parallel to Neighbors (shared with graph.Dense).
	weights []graph.Weight
	// Exactly one of the following is set. regs/nbrIdx read neighbor
	// registers live from the register file (regs[nbrIdx[j]] is the
	// state of Neighbors[j]); peers is a parallel snapshot.
	regs   []State
	nbrIdx []int32
	peers  []State
}

// NewView assembles a node's legal view from an explicitly provided
// neighborhood snapshot: peers[j] is the register content of
// Neighbors[j] (nil for a neighbor whose state is unknown — algorithms
// treat nil exactly like a foreign register) and weights[j] the weight
// of the incident edge. This is the adapter seam for layers that
// realize the shared-register model over message passing
// (internal/cluster): a node's cache of neighbor heartbeat states is
// presented to unmodified algorithms as the atomic view the state model
// promises. The slices are retained by the view, not copied; callers
// must keep them stable for the view's lifetime (one Step call).
func NewView(id graph.NodeID, n int, neighbors []graph.NodeID, weights []graph.Weight, self State, peers []State) View {
	if len(peers) != len(neighbors) || len(weights) != len(neighbors) {
		panic(fmt.Sprintf("runtime: view of node %d: %d neighbors, %d peers, %d weights",
			id, len(neighbors), len(peers), len(weights)))
	}
	return View{
		ID: id, N: n, Neighbors: neighbors, Self: self,
		weights: weights, peers: peers,
	}
}

// peerAt returns the register of Neighbors[j].
func (v *View) peerAt(j int) State {
	if v.peers != nil {
		return v.peers[j]
	}
	return v.regs[v.nbrIdx[j]]
}

// PeerAt returns the register content of Neighbors[j]: the positional
// accessor for rules that iterate the Neighbors slice. Unlike Peer it
// performs no search, so a full neighborhood scan is O(deg).
func (v *View) PeerAt(j int) State { return v.peerAt(j) }

// WeightAt returns the weight of the incident edge to Neighbors[j].
func (v *View) WeightAt(j int) graph.Weight { return v.weights[j] }

// Peer returns the register content of neighbor u. It panics if u is not
// a neighbor: reading a non-neighbor's register would violate the model.
func (v *View) Peer(u graph.NodeID) State {
	j, ok := slices.BinarySearch(v.Neighbors, u)
	if !ok {
		panic(fmt.Sprintf("runtime: node %d read non-neighbor %d", v.ID, u))
	}
	return v.peerAt(j)
}

// EdgeWeight returns the weight of the incident edge to neighbor u (an
// incorruptible constant, per Section II-A).
func (v *View) EdgeWeight(u graph.NodeID) graph.Weight {
	j, ok := slices.BinarySearch(v.Neighbors, u)
	if !ok {
		panic(fmt.Sprintf("runtime: node %d has no edge to %d", v.ID, u))
	}
	return v.weights[j]
}

// Algorithm is a distributed algorithm in the state model: a transition
// function δ plus a way to draw arbitrary initial register contents
// (self-stabilizing algorithms must converge from any of them).
type Algorithm interface {
	// Step applies δ to the view and returns the node's next state. The
	// node is enabled iff the result differs (Equal is false) from
	// view.Self; a disabled node may return view.Self itself, which
	// spares boxing a copy. Step must not mutate the view's states and
	// must not retain the view past the call (its slices are reused).
	//
	// The engine calls Step concurrently for distinct nodes of one
	// network (a large drain is fanned out over GOMAXPROCS workers), so
	// Step must write no state shared between calls: δ is a pure
	// function of the view.
	Step(v View) State
	// ArbitraryState returns an arbitrary register content for the node:
	// the adversarial initialization of the self-stabilization model.
	// Implementations should cover the whole reachable state space and
	// also plainly corrupt values.
	ArbitraryState(rng *rand.Rand, v View) State
	// Name identifies the algorithm in traces and benchmarks.
	Name() string
}

// Network binds a graph, an algorithm, and the current register contents.
// All per-node bookkeeping is index-addressed through the graph's dense
// snapshot (see the package comment's engine-internals section).
type Network struct {
	g   *graph.Graph
	d   *graph.Dense
	alg Algorithm

	// states is the register file, indexed by dense index.
	states []State

	// enabled is the incrementally maintained enabled set; dirty marks
	// indices whose membership must be recomputed (a node's enabledness
	// only changes when it or a neighbor writes), and dirtyList is the
	// worklist of marked indices. nextCache[i] holds δ(view(i)) as
	// computed by the last drain — valid iff !dirty[i], since no
	// register in i's 1-hop neighborhood has been written since — so an
	// activation applies the transition the drain already computed
	// instead of running Step twice per move.
	enabled   *EnabledSet
	dirty     []bool
	dirtyList []int32
	nextCache []State

	// drainBuf and enBuf are drainParallel's reused scratch: the
	// collected dirty indices, and each one's freshly computed
	// enabledness.
	drainBuf []int32
	enBuf    []bool

	// pendingEpoch marks the round's frontier X (paper round
	// accounting): index i is in the frontier iff pendingEpoch[i] equals
	// the current epoch. Nodes leave the frontier by stepping (Run) or
	// on an enabled->disabled transition (drain); bumping epoch starts a
	// fresh round in O(1) with no clearing pass.
	pendingEpoch []uint64
	epoch        uint64
	pendingCount int
	// roundOpen: the frontier is the one the last Run left, and nothing
	// was written or reshaped from outside since; the next Run resumes it.
	roundOpen bool

	// chosenBuf, nextBuf and idxBuf are reusable per-activation scratch.
	chosenBuf []graph.NodeID
	nextBuf   []State
	idxBuf    []int32

	// syncedEpoch is the dense structural epoch the per-slot arrays
	// above agree with. The Network's own mutators keep it current;
	// drain panics on a mismatch, which catches graph mutation behind
	// the network's back before a stale neighbor slot is ever read.
	syncedEpoch uint64

	monitors  []Monitor
	listeners []StateListener
	moves     int
	rounds    int
}

// StateListener observes register writes: it is invoked after node v's
// register changes from old to new — both for algorithm steps applied
// by Run and for direct SetState writes (fault injection). Serving
// layers built on top of the trees use it as a tree-change
// notification: a write to a parent pointer means the routing substrate
// may have changed and derived structures (coordinate labelings,
// caches) must be refreshed. Listeners must not mutate the network.
type StateListener func(v graph.NodeID, old, new State)

// NewNetwork creates a network with every register content nil; call
// InitArbitrary or SetState before running. It returns an error for
// disconnected or empty graphs, which the model excludes.
func NewNetwork(g *graph.Graph, alg Algorithm) (*Network, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("runtime: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("runtime: graph not connected")
	}
	d := g.Dense()
	n := d.Slots()
	net := &Network{
		g:            g,
		d:            d,
		alg:          alg,
		states:       make([]State, n),
		enabled:      newEnabledSet(d),
		dirty:        make([]bool, n),
		nextCache:    make([]State, n),
		pendingEpoch: make([]uint64, n),
		epoch:        1, // pendingEpoch zero values never match
		syncedEpoch:  d.Epoch(),
	}
	net.markAllDirty()
	return net, nil
}

func (net *Network) markAllDirty() {
	for i := range net.dirty {
		if !net.dirty[i] && net.d.LiveAt(i) {
			net.dirty[i] = true
			net.dirtyList = append(net.dirtyList, int32(i))
		}
	}
}

// markDirtyAt invalidates the cached enabledness of index i.
func (net *Network) markDirtyAt(i int32) {
	if !net.dirty[i] {
		net.dirty[i] = true
		net.dirtyList = append(net.dirtyList, i)
	}
}

// markDirtyAround invalidates the cached enabledness of index i and its
// neighbors — the write-set of one register write.
func (net *Network) markDirtyAround(i int32) {
	net.markDirtyAt(i)
	for _, j := range net.d.NeighborIndices(int(i)) {
		net.markDirtyAt(j)
	}
}

// drain restores the enabled-set invariant: recompute the enabledness
// of every dirty index and update set membership. A pending node
// observed transitioning to disabled leaves the round frontier, exactly
// as the paper's round definition requires. Cost is O(Σ deg) over the
// dirtied nodes; Step is pure, so recomputation order is immaterial.
//
// A worklist of at most one shard (drainShard), or any worklist under
// GOMAXPROCS = 1, is drained in one pass on the caller's goroutine,
// which allocates nothing. A longer one goes to drainParallel.
func (net *Network) drain() {
	if net.d.Epoch() != net.syncedEpoch {
		panic("runtime: graph mutated behind the network's back; topology churn must go through Network.AddNode/RemoveNode/AddEdge/RemoveEdge")
	}
	if len(net.dirtyList) > drainShard && goruntime.GOMAXPROCS(0) > 1 {
		net.drainParallel()
		return
	}
	for len(net.dirtyList) > 0 {
		i := net.dirtyList[len(net.dirtyList)-1]
		net.dirtyList = net.dirtyList[:len(net.dirtyList)-1]
		if !net.dirty[i] {
			continue
		}
		net.dirty[i] = false
		if !net.d.LiveAt(int(i)) {
			continue
		}
		next := net.alg.Step(net.viewAt(int(i)))
		net.nextCache[i] = next
		en := !next.Equal(net.states[i])
		if en {
			net.enabled.add(int(i))
		} else {
			net.enabled.remove(int(i))
			if net.pendingEpoch[i] == net.epoch {
				net.pendingEpoch[i] = 0
				net.pendingCount--
			}
		}
	}
}

// drainParallel is drain in three phases. Collect pops the worklist, in
// the order drain pops it, into drainBuf. Evaluate runs δ once per
// collected node on up to GOMAXPROCS workers (ParallelFor), each
// evaluation writing only its node's nextCache entry and its slot of
// enBuf — Step is pure, so the workers share nothing else. Settle then
// updates the enabled set and the round frontier on the caller's
// goroutine, in list order, exactly as the one-pass drain would have.
// No count, trace or register depends on the worker count.
func (net *Network) drainParallel() {
	list := net.drainBuf[:0]
	for k := len(net.dirtyList) - 1; k >= 0; k-- {
		i := net.dirtyList[k]
		if net.dirty[i] {
			net.dirty[i] = false
			if net.d.LiveAt(int(i)) {
				list = append(list, i)
			}
		}
	}
	net.dirtyList = net.dirtyList[:0]
	en := slices.Grow(net.enBuf[:0], len(list))[:len(list)]
	net.drainBuf, net.enBuf = list, en
	ParallelFor(len(list), drainShard, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i := list[k]
			next := net.alg.Step(net.viewAt(int(i)))
			net.nextCache[i] = next
			en[k] = !next.Equal(net.states[i])
		}
	})
	for k, i := range list {
		if en[k] {
			net.enabled.add(int(i))
			continue
		}
		net.enabled.remove(int(i))
		if net.pendingEpoch[i] == net.epoch {
			net.pendingEpoch[i] = 0
			net.pendingCount--
		}
	}
}

// Graph returns the underlying graph.
func (net *Network) Graph() *graph.Graph { return net.g }

// Dense returns the dense index mapping the register file is laid out
// over — the index space of StateAt and of serving layers that read
// registers in bulk.
func (net *Network) Dense() *graph.Dense { return net.d }

// Algorithm returns the bound algorithm.
func (net *Network) Algorithm() Algorithm { return net.alg }

// State returns node v's current register content (nil if unset).
func (net *Network) State(v graph.NodeID) State {
	i, ok := net.d.IndexOf(v)
	if !ok {
		return nil
	}
	return net.states[i]
}

// StateAt returns the register content at dense index i (nil if unset).
func (net *Network) StateAt(i int) State { return net.states[i] }

// SetState writes node v's register directly (used for fault injection
// and for preparing specific initial configurations).
func (net *Network) SetState(v graph.NodeID, s State) {
	i, ok := net.d.IndexOf(v)
	if !ok {
		panic(fmt.Sprintf("runtime: unknown node %d", v))
	}
	old := net.states[i]
	net.states[i] = s
	net.roundOpen = false
	net.markDirtyAround(int32(i))
	changed := (old == nil) != (s == nil) ||
		(old != nil && s != nil && !s.Equal(old))
	if changed {
		net.notify(v, old, s)
	}
}

// AddStateListener registers a write observer (see StateListener).
func (net *Network) AddStateListener(l StateListener) {
	net.listeners = append(net.listeners, l)
}

func (net *Network) notify(v graph.NodeID, old, new State) {
	for _, l := range net.listeners {
		l(v, old, new)
	}
}

// InitArbitrary fills every register with an arbitrary state drawn from
// the algorithm — the adversarial initial configuration of the
// self-stabilization model.
func (net *Network) InitArbitrary(rng *rand.Rand) {
	for i := range net.states {
		if !net.d.LiveAt(i) {
			continue
		}
		net.states[i] = net.alg.ArbitraryState(rng, net.viewAt(i))
	}
	net.roundOpen = false
	net.markAllDirty()
}

// viewAt builds the view of the node at dense index i. The view reads
// neighbor registers live from the register file: construction is O(1)
// and allocation-free.
func (net *Network) viewAt(i int) View {
	return View{
		ID:        net.d.ID(i),
		N:         net.d.N(),
		Neighbors: net.d.NeighborIDs(i),
		Self:      net.states[i],
		weights:   net.d.Weights(i),
		regs:      net.states,
		nbrIdx:    net.d.NeighborIndices(i),
	}
}

// view builds node v's legal view of the system. The neighbor slice is
// shared: algorithms receive it read-only via View.Neighbors and must
// not mutate it (runtime.Algorithm contract).
func (net *Network) view(v graph.NodeID) View {
	i, ok := net.d.IndexOf(v)
	if !ok {
		panic(fmt.Sprintf("runtime: unknown node %d", v))
	}
	return net.viewAt(i)
}

// Enabled returns the identities of all currently enabled nodes, in
// increasing order. The slice is freshly allocated; schedulers never
// see it (they read the maintained EnabledSet instead).
func (net *Network) Enabled() []graph.NodeID {
	net.drain()
	return net.enabled.AppendIDs(make([]graph.NodeID, 0, net.enabled.Len()))
}

// Silent reports whether the configuration is terminal: no node enabled.
// A silent algorithm stabilizes to configurations where this stays true
// (Section II-A). It reads the maintained enabled-set size — O(1) past
// the pending recomputation of nodes dirtied since the last read.
func (net *Network) Silent() bool {
	net.drain()
	return net.enabled.Len() == 0
}

// RoundPending reports whether node v is still in the current round's
// frontier X: enabled at the round's start and since then neither
// stepped nor observed disabled. Certification schedulers and tests use
// it to reason about round progress from outside the engine.
func (net *Network) RoundPending(v graph.NodeID) bool {
	i, ok := net.d.IndexOf(v)
	if !ok {
		return false
	}
	return net.pendingEpoch[i] == net.epoch
}

// PerturbEdgeWeight is the weight-churn campaign hook: it rewrites the
// weight of the live edge {u,v} in both the graph and the dense layout
// the register file reads through, then invalidates the cached
// enabledness of the two endpoints (they are the only nodes whose views
// contain the edge). Unlike the structural mutators below it does not
// change the graph's shape, so no slot bookkeeping moves and the dense
// structural epoch stays put (weights enter no coordinate labeling).
func (net *Network) PerturbEdgeWeight(u, v graph.NodeID, w graph.Weight) error {
	if err := net.g.UpdateEdgeWeight(u, v, w); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	net.roundOpen = false
	iu, _ := net.d.IndexOf(u)
	iv, _ := net.d.IndexOf(v)
	net.markDirtyAt(int32(iu))
	net.markDirtyAt(int32(iv))
	return nil
}

// growTo extends the per-slot arrays to cover a grown slot space.
func (net *Network) growTo(slots int) {
	for len(net.states) < slots {
		net.states = append(net.states, nil)
		net.dirty = append(net.dirty, false)
		net.nextCache = append(net.nextCache, nil)
		net.pendingEpoch = append(net.pendingEpoch, 0)
	}
}

// AddEdge inserts the edge {u,v} with weight w into the live network —
// a link coming up under stabilization. Both endpoints must already be
// nodes (use AddNode to join a fresh node first) and the edge must be
// absent. Only the two endpoints observe the new link, so only their
// cached enabledness is invalidated.
func (net *Network) AddEdge(u, v graph.NodeID, w graph.Weight) error {
	if err := net.g.AddLink(u, v, w); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	net.syncedEpoch = net.d.Epoch()
	net.roundOpen = false
	iu, _ := net.d.IndexOf(u)
	iv, _ := net.d.IndexOf(v)
	net.markDirtyAt(int32(iu))
	net.markDirtyAt(int32(iv))
	return nil
}

// RemoveEdge deletes the live edge {u,v} — a link going down. Removing
// the last edge of a node leaves the node in the network with degree
// zero (the graph may transiently disconnect; the algorithms stabilize
// per component until churn heals it). Double removal errors.
func (net *Network) RemoveEdge(u, v graph.NodeID) error {
	if err := net.g.RemoveEdge(u, v); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	net.syncedEpoch = net.d.Epoch()
	net.roundOpen = false
	iu, _ := net.d.IndexOf(u)
	iv, _ := net.d.IndexOf(v)
	net.markDirtyAt(int32(iu))
	net.markDirtyAt(int32(iv))
	return nil
}

// AddNode joins node id to the live network with an empty register: its
// first activation runs the algorithm's bootstrap rule. The node reuses
// a vacated register-file slot when one exists, otherwise the per-slot
// arrays grow. The new node starts outside the current round's frontier.
func (net *Network) AddNode(id graph.NodeID) error {
	if net.g.HasNode(id) {
		return fmt.Errorf("runtime: node %d already present", id)
	}
	net.g.AddNode(id)
	net.syncedEpoch = net.d.Epoch()
	net.roundOpen = false
	slot, _ := net.d.IndexOf(id)
	net.growTo(net.d.Slots())
	net.states[slot] = nil
	net.nextCache[slot] = nil
	net.pendingEpoch[slot] = 0
	net.enabled.insertID(slot, id)
	net.markDirtyAt(int32(slot))
	return nil
}

// RemoveNode removes node id and every incident edge from the live
// network — a node crashing out. Its register-file slot is vacated for
// reuse, it leaves the enabled set and the round frontier, and every
// former neighbor's cached enabledness is invalidated (their views
// shrank), so no view ever reads the dead slot again.
func (net *Network) RemoveNode(id graph.NodeID) error {
	slot, ok := net.d.IndexOf(id)
	if !ok {
		return fmt.Errorf("runtime: no node %d", id)
	}
	nbrs := slices.Clone(net.d.NeighborIndices(slot))
	if err := net.g.RemoveNode(id); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	net.syncedEpoch = net.d.Epoch()
	net.roundOpen = false
	old := net.states[slot]
	net.states[slot] = nil
	net.nextCache[slot] = nil
	net.dirty[slot] = false // a stale dirtyList entry is skipped by drain
	if net.pendingEpoch[slot] == net.epoch {
		net.pendingEpoch[slot] = 0
		net.pendingCount--
	}
	net.enabled.deleteSlot(slot)
	for _, j := range nbrs {
		net.markDirtyAt(j)
	}
	if old != nil {
		net.notify(id, old, nil)
	}
	return nil
}

// Moves returns the number of individual steps taken so far.
func (net *Network) Moves() int { return net.moves }

// Rounds returns the number of completed rounds so far.
func (net *Network) Rounds() int { return net.rounds }

// MaxRegisterBits returns the maximum register size over all nodes under
// the natural encoding — the space-complexity measure of the paper.
func (net *Network) MaxRegisterBits() int {
	max := 0
	for _, s := range net.states {
		if s == nil {
			continue
		}
		if b := s.EncodedBits(); b > max {
			max = b
		}
	}
	return max
}

// AddMonitor registers an invariant checked after every applied step.
func (net *Network) AddMonitor(m Monitor) { net.monitors = append(net.monitors, m) }

// Result summarizes a run.
//
// Rounds and Moves are running totals since the network was built, the
// values of Network.Rounds and Network.Moves, not this run's own: a
// caller charging one of several runs on a network subtracts the counts
// it read before the run, and maxMoves caps the same total.
type Result struct {
	// Rounds is the number of rounds completed (until silence, or until
	// the cap).
	Rounds int
	// Moves is the number of individual node steps.
	Moves int
	// Silent reports whether the run reached a silent configuration.
	Silent bool
	// MaxRegisterBits is the largest register observed at the end.
	MaxRegisterBits int
}

// startRound records the round frontier X: every currently enabled
// node. Callers must have drained first. Bumping the epoch retires the
// previous frontier wholesale, so the cost is O(|X|).
func (net *Network) startRound() {
	net.epoch++
	net.pendingCount = net.enabled.Len()
	for w, word := range net.enabled.words {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			net.pendingEpoch[i] = net.epoch
			word &= word - 1
		}
	}
}

// Run drives the network under the given scheduler until silence or until
// maxMoves steps have been taken. It returns an error if a monitor
// rejects a configuration (an invariant violation) or if the scheduler
// misbehaves.
//
// Rounds follow the paper's definition: at the start of a round the set X
// of enabled nodes is recorded; the round completes once every node of X
// has taken a step or has become disabled by its neighbors' actions.
// Disabled transitions are observed incrementally by the drain, so round
// accounting costs O(|chosen|) per activation, not O(n). Run resumes the
// round the previous Run left open, unless SetState, InitArbitrary,
// PerturbEdgeWeight or a structural mutator touched the network since.
func (net *Network) Run(sched Scheduler, maxMoves int) (Result, error) {
	if na, ok := sched.(NetworkAware); ok {
		na.BindNetwork(net)
	}
	net.drain()
	if !net.roundOpen {
		net.startRound()
		net.roundOpen = true
	}
	for net.moves < maxMoves {
		if net.enabled.Len() == 0 {
			break
		}
		chosen := sched.Choose(net.enabled, net.chosenBuf[:0])
		net.chosenBuf = chosen[:0]
		if len(chosen) == 0 {
			return Result{}, fmt.Errorf("runtime: scheduler chose no node among %d enabled", net.enabled.Len())
		}
		if err := net.applySimultaneous(chosen); err != nil {
			return Result{}, err
		}
		for _, m := range net.monitors {
			if err := m.Check(net); err != nil {
				return Result{}, fmt.Errorf("runtime: invariant violated after move %d: %w", net.moves, err)
			}
		}
		// Update round accounting: chosen nodes leave the frontier by
		// stepping (idxBuf holds their indices, filled by the apply);
		// disabled transitions left it during the drain below.
		for _, i := range net.idxBuf {
			if net.pendingEpoch[i] == net.epoch {
				net.pendingEpoch[i] = 0
				net.pendingCount--
			}
		}
		net.drain()
		if net.pendingCount == 0 {
			net.rounds++
			net.startRound()
		}
	}
	silent := net.Silent()
	return Result{
		Rounds:          net.rounds,
		Moves:           net.moves,
		Silent:          silent,
		MaxRegisterBits: net.MaxRegisterBits(),
	}, nil
}

// applySimultaneous performs one scheduler activation: all chosen nodes
// read the same pre-configuration, then all write (composite atomicity —
// the compute phase finishes before the first write lands). Callers
// have drained, so for every clean chosen node the pre-configuration
// transition is already in nextCache; Step only reruns for nodes
// dirtied between the drain and this call (never on the Run path).
func (net *Network) applySimultaneous(chosen []graph.NodeID) error {
	next := net.nextBuf[:0]
	idx := net.idxBuf[:0]
	for _, v := range chosen {
		i, ok := net.d.IndexOf(v)
		if !ok {
			return fmt.Errorf("runtime: scheduler chose unknown node %d", v)
		}
		idx = append(idx, int32(i))
		if net.dirty[i] {
			next = append(next, net.alg.Step(net.viewAt(i)))
		} else {
			next = append(next, net.nextCache[i])
		}
	}
	net.nextBuf, net.idxBuf = next, idx
	for k, i := range idx {
		s := next[k]
		if !s.Equal(net.states[i]) {
			net.moves++
			old := net.states[i]
			net.states[i] = s
			net.markDirtyAround(i)
			net.notify(chosen[k], old, s)
		}
	}
	return nil
}
