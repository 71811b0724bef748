// Package cluster executes the repository's self-stabilizing algorithms
// over real transports instead of the simulator: each node is an
// independent state machine owning only its local register and a cache
// of its neighbors' last heartbeat states, exchanged as checksummed
// wire frames (internal/wire) over a pluggable Transport.
//
// This is the classic shared-memory→message-passing transform: a node
// periodically broadcasts its register; neighbors cache the last
// received copy; the transition function δ is evaluated against the
// cache, presented to the unmodified algorithm through the
// runtime.NewView adapter seam. Stale cache entries (no heartbeat
// within StalenessTTL) read as nil — unknown, hence locally
// inconsistent — so a node never acts on information older than the
// staleness bound. The transform preserves silence (stabilized
// clusters exchange only constant-size keep-alive heartbeats, and
// registers stop changing) and the Θ(log n) register bound (a frame
// carries one gamma-coded register plus a constant envelope).
//
// Two execution modes share the node logic:
//
//   - Lockstep (Tick/RunUntilQuiet, over a Stepper transport such as
//     ChanTransport): Tick is a parallel-for over the nodes that are due
//     — up to GOMAXPROCS workers call their ticks between two barriers,
//     with no goroutine or channel per node; frames travel at the
//     barrier in deterministic order. Same seed ⇒ identical execution
//     trace, whatever the worker count, which is what the certification
//     campaigns and the determinism tests rely on.
//   - Free-running (Serve, over an async transport such as
//     UDPTransport): GOMAXPROCS workers, each owning every W-th slot with
//     one ticker and one wake channel its endpoints signal; a node with
//     frames waiting receives between ticks and forwards the packets that
//     arrived at once — the deployment shape.
//
// Both call Node.tick and read register activity off one counter,
// Cluster.regWrites, which every write bumps. At the end of each pass of
// the cluster clock — a Tick, or a tick pass of Serve's worker 0 — a
// moved counter refreshes the gateway's labeling and restarts the quiet
// count (observeWrites; lockstep counts only the tick's δ writes).
//
// Silence is as cheap in Node.tick as on the wire. A
// node's round — the staleness sweep, one δ evaluation, the detector — is
// a pure function of its inputs, so tick runs it only when an input was
// written since the last one (Node.dirty, raised by setState,
// applyRemapLocked, forgetPeerLocked and by ingest for a heartbeat that
// revives an entry or carries a different register or quiet report) or a
// deadline the last one published fell due (Node.wakeAt: a freshness
// pull, a staleness expiry, the local quiet window closing). Lockstep
// skips the whole tick of a node with nothing due (Cluster.due); readers
// see the clock it would have had through Node.clock.
//
// A Gateway (gateway.go) rides on top, maintaining a
// routing.LiveLabeler over the live registers and carrying routed
// packets hop-by-hop as data frames through the same transport. The
// cluster's graph is its one topology: Join, Leave, Crash, AddEdge and
// RemoveEdge validate, change it in place, and have the gateway
// republish its labeling (Gateway.publish).
//
// Locking: Cluster.memMu guards the membership view and nests outside
// everything else. A Node's mu guards what other goroutines see of it —
// the register, the neighbor row with its one peerState record per
// neighbor, the parked-packet queue, the local clock and the detector
// round; its sender-side stream, cadence and scratch buffers belong to
// whichever goroutine runs its round, and its counters are atomics (the
// Node struct is laid out in that order).
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/runtime"
	"silentspan/internal/trace"
	"silentspan/internal/wire"
)

// Config parameterizes a cluster. Zero values take the documented
// defaults.
type Config struct {
	// HeartbeatEvery is the keep-alive period in ticks: a node
	// rebroadcasts its register every this many ticks even without a
	// change (default 1; changes always broadcast immediately).
	HeartbeatEvery int
	// StalenessTTL is the cache expiry in local ticks: a neighbor not
	// heard from for longer reads as unknown (nil state). Must comfortably
	// exceed HeartbeatEvery plus the worst transport delay, or live
	// neighbors flap in and out of existence (default 12). It is also the
	// termination detector's local-quiet window (see Node.localQuiet).
	StalenessTTL int
	// Interval is the free-running tick period (default 2ms).
	Interval time.Duration
	// BackoffCap bounds the keep-alive back-off in ticks: while a node's
	// register is quiet its heartbeat gap doubles per keep-alive up to
	// this cap. The default is max(HeartbeatEvery, (StalenessTTL−2)/4),
	// so a peer's observed age stays under StalenessTTL even through
	// three consecutive lost keep-alives; fill hard-clamps any explicit
	// value to (StalenessTTL−2)/2 (one tolerated loss) — beyond that a
	// merely quiet neighbor would flap stale.
	BackoffCap int
}

// The rest of the protocol's timing is fixed, not configured: each
// value below is sound for every Config fill accepts, and none trades
// against the four fields above.
const (
	// minGap is the minimum ticks between frames triggered by register
	// changes: a burst of moves within one tick coalesces into one frame.
	minGap = 1
	// fullEvery re-anchors the delta stream with a self-contained frame
	// every this many broadcasts, bounding how long a receiver that lost
	// the anchor waits before the stream self-heals even without its
	// resync request getting through.
	fullEvery = 16
	// maxHold is a parked packet's stall budget in ticks before it is
	// dropped — labelings heal within a convergence.
	maxHold = 256
)

func (c *Config) fill() {
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 1
	}
	if c.StalenessTTL == 0 {
		c.StalenessTTL = 12
	}
	if c.Interval == 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = max(c.HeartbeatEvery, (c.StalenessTTL-2)/4)
	}
	// Safety clamp: a quiet sender emits one keep-alive per BackoffCap
	// ticks, and the receiver's view of it must never age past the TTL
	// even if one keep-alive is lost (observed age ≈ 2·gap at the loss).
	if hard := (c.StalenessTTL - 2) / 2; c.BackoffCap > hard {
		c.BackoffCap = hard
	}
	c.BackoffCap = max(c.BackoffCap, c.HeartbeatEvery, 1)
}

// Stats aggregates the cluster's transport activity: the sum of every
// node's counters, retired nodes included, plus the membership events.
// It reads atomic per-node counters, so it is safe to call at any time —
// including concurrently with Tick or Serve.
type Stats struct {
	NodeStats
	// Membership accounting (all zero in a churn-free run).
	Joins   int
	Leaves  int
	Crashes int
}

// Cluster binds a graph, an algorithm, a wire codec, and a transport
// into a message-passing deployment of the algorithm.
type Cluster struct {
	g     *graph.Graph
	d     *graph.Dense
	alg   runtime.Algorithm
	codec wire.Codec
	tr    Transport
	step  Stepper // nil when the transport is async-only
	cfg   Config

	// memMu guards the membership view: the nodes slice (nil-holed at
	// vacated dense slots), the seq floors of departed incarnations, and
	// the admin server set. Read-locked for every iteration (ticks,
	// stats, scrapes, snapshots); write-locked by Join/Leave/Crash/
	// AddEdge/RemoveEdge. Lock order is memMu → (nd.mu | gw.labMu);
	// nothing acquires memMu while holding either.
	memMu sync.RWMutex
	nodes []*Node // dense-slot order; nil = vacated slot
	// due holds, per dense slot, the first Tick that must run its node if
	// nothing new reaches it (see tickNodes); run is tickNodes' scratch.
	due []uint64
	run []int32
	// seqFloor remembers the last heartbeat seq of every departed id: a
	// rejoining incarnation opens its counter above it, so old in-flight
	// frames can never shadow the rejoiner behind receivers' duplicate
	// filters.
	seqFloor map[graph.NodeID]uint64
	admin    *AdminServers // non-nil once ServeAdmin ran

	gw *Gateway
	// seenWrites is the regWrites value the last observeWrites saw. Only
	// the cluster clock touches it — Tick's caller, or Serve's worker 0 —
	// and the two never share a cluster: Tick needs a Stepper transport,
	// Serve one whose endpoints Notify.
	seenWrites int64

	// Cluster clock: Tick counts lockstep ticks, Serve worker 0's tick
	// passes. tick/lastChangeTick/changedLast are atomic so the metrics
	// scrape can read convergence gauges while a pass is in flight.
	tick           atomic.Uint64
	lastChangeTick atomic.Uint64
	changedLast    atomic.Int64

	// wakes holds one wake channel per Serve worker while Serve runs (nil
	// otherwise); worker w owns the dense slots i ≡ w (mod len). The
	// endpoints' arrival callbacks load it lock-free.
	wakes atomic.Pointer[[]chan struct{}]

	// Membership accounting. departed folds retired nodes' final
	// counters so cluster totals stay monotone across churn (a scrape
	// must never see ss_cluster_frames_sent_total decrease because a
	// node left).
	joins, leaves, crashes atomic.Int64
	departed               nodeCounters

	// Termination-detector surface (quiet.go). annRoots is the set of
	// currently announcing tree roots with their announced epochs;
	// announced/annEpoch are its atomic projection for gauges and
	// QuietAnnounced; quietCh carries aggregate transitions. regWrites
	// counts every register write, δ-driven and out-of-band, so neither
	// Tick nor Serve sweeps the nodes to learn whether one happened.
	annMu     sync.Mutex
	annRoots  map[graph.NodeID]uint64
	announced atomic.Bool
	annEpoch  atomic.Uint64
	quietCh   chan QuietEvent
	regWrites atomic.Int64

	// metrics is the cluster's operational registry: counters and
	// gauges over the hot paths, scraped through the admin plane's
	// /metrics endpoint or snapshot directly.
	metrics      *ops.Registry
	hbCadence    *ops.Histogram
	frameBytes   *ops.Histogram
	ticksToQuiet *ops.Gauge

	// Flight-recorder surface (trace.go): flightCap > 0 arms per-node
	// rings (joiners get one on admit); departedTr retains retired
	// nodes' final rings, bounded by departedTraceCap. Both under memMu.
	flightCap  int
	departedTr []trace.NodeTrace
}

// New builds a cluster over g running alg, opening one endpoint per
// node on tr. The codec is derived from the algorithm. Membership is
// live: Join, Leave, and Crash reshape the cluster at any point,
// including mid-Serve (see membership.go and DESIGN.md §12).
func New(g *graph.Graph, alg runtime.Algorithm, tr Transport, cfg Config) (*Cluster, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("cluster: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("cluster: graph not connected")
	}
	codec, err := wire.ForAlgorithm(alg)
	if err != nil {
		return nil, err
	}
	d := g.Dense()
	st, _ := tr.(Stepper)
	c := &Cluster{g: g, d: d, alg: alg, codec: codec, tr: tr, step: st, cfg: cfg,
		seqFloor: make(map[graph.NodeID]uint64),
		annRoots: make(map[graph.NodeID]uint64),
		quietCh:  make(chan QuietEvent, 16)}
	c.cfg.fill()
	for i := 0; i < d.Slots(); i++ {
		if !d.LiveAt(i) {
			return nil, fmt.Errorf("cluster: graph has vacated dense slots; cluster its Graph.Clone instead")
		}
		ep, err := tr.Open(d.ID(i))
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, c.newMember(d.ID(i), i, ep))
		c.due = append(c.due, 0)
	}
	c.registerMetrics()
	return c, nil
}

// newMember builds the node for dense slot i with a cloned neighbor
// row (the dense rows mutate in place under churn) and wires its input
// signal, nd.wake, to the due set (a lockstep endpoint: no Notify
// channel) or else to the Serve worker owning the slot. The endpoint
// calls the same closure on every arrival, Launch on every injection.
func (c *Cluster) newMember(id graph.NodeID, i int, ep Endpoint) *Node {
	neighbors := append([]graph.NodeID(nil), c.d.NeighborIDs(i)...)
	weights := append([]graph.Weight(nil), c.d.Weights(i)...)
	nd := newNode(id, i, c.d.N(), neighbors, weights, ep, c.codec, c.alg)
	nd.noteAnn = c.noteAnnounce
	nd.writeCount = &c.regWrites
	if ep.Notify() == nil {
		nd.lockstep = &c.tick
		nd.wake = func() { c.markDue(i) }
	} else {
		nd.wake = func() {
			if nd.rx.Swap(true) {
				return // raised since the last drain: a pass that drains it is due
			}
			if ws := c.wakes.Load(); ws != nil {
				select {
				case (*ws)[i%len(*ws)] <- struct{}{}:
				default:
				}
			}
		}
	}
	ep.Wake(nd.wake)
	return nd
}

// registerMetrics builds the cluster's operational registry. Counters
// over per-node activity are func-backed: the hot paths already
// maintain atomic per-node counters, and the scrape sums them on
// demand — a /metrics read is therefore exactly consistent (±0) with
// Stats(), because both read the same atomics.
func (c *Cluster) registerMetrics() {
	reg := ops.NewRegistry()
	c.metrics = reg
	reg.GaugeFunc("ss_cluster_nodes", "Live cluster size.", nil,
		func() float64 {
			c.memMu.RLock()
			defer c.memMu.RUnlock()
			return float64(c.d.N())
		})
	reg.CounterFunc("ss_cluster_joins_total", "Nodes joined into the running cluster.", nil,
		func() float64 { return float64(c.joins.Load()) })
	reg.CounterFunc("ss_cluster_leaves_total", "Nodes retired cooperatively (goodbye broadcast).", nil,
		func() float64 { return float64(c.leaves.Load()) })
	reg.CounterFunc("ss_cluster_crashes_total", "Nodes killed without a goodbye.", nil,
		func() float64 { return float64(c.crashes.Load()) })
	for i, m := range counterMetrics {
		reg.CounterFunc(m.name, m.help, nil, func() float64 {
			c.memMu.RLock()
			defer c.memMu.RUnlock()
			t := c.departed[i].Load()
			for _, nd := range c.nodes {
				if nd != nil {
					t += nd.stats[i].Load()
				}
			}
			return float64(t)
		})
	}
	reg.GaugeFunc("ss_cluster_ticks", "Cluster clock: lockstep ticks, or Serve worker 0's tick passes.", nil,
		func() float64 { return float64(c.tick.Load()) })
	reg.GaugeFunc("ss_cluster_changed_last_tick", "Registers that changed in the last lockstep tick (0 = converging toward silence).", nil,
		func() float64 { return float64(c.changedLast.Load()) })
	reg.GaugeFunc("ss_cluster_quiet_ticks", "Cluster-clock ticks since the last one that saw a register change.", nil,
		func() float64 { return float64(c.QuietFor()) })
	reg.GaugeFunc("ss_cluster_detected_quiet", "In-band termination detector: 1 while a tree root announces cluster-wide quiet.", nil,
		func() float64 {
			if c.announced.Load() {
				return 1
			}
			return 0
		})
	c.ticksToQuiet = reg.Gauge("ss_cluster_ticks_to_quiet",
		"Ticks the last RunUntilQuiet consumed to reach quiet (0 until reached).", nil)
	c.hbCadence = reg.Histogram("ss_cluster_heartbeat_interval_ticks",
		"Local ticks between consecutive heartbeat broadcasts per node.", nil,
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	c.frameBytes = reg.Histogram("ss_cluster_frame_bytes",
		"Encoded size of each distinct frame sent (one observation per broadcast, not per fan-out copy).", nil,
		[]float64{8, 16, 24, 32, 48, 64, 128})
	for _, nd := range c.nodes {
		nd.hbCadence = c.hbCadence
		nd.frameBytes = c.frameBytes
	}
	if m, ok := c.tr.(interface{ RegisterMetrics(*ops.Registry) }); ok {
		m.RegisterMetrics(reg)
	}
}

// Metrics returns the cluster's operational registry — served at
// /metrics by the admin plane, snapshot-able for benches.
func (c *Cluster) Metrics() *ops.Registry { return c.metrics }

// Graph returns the underlying graph.
func (c *Cluster) Graph() *graph.Graph { return c.g }

// Algorithm returns the algorithm the cluster runs.
func (c *Cluster) Algorithm() runtime.Algorithm { return c.alg }

// Codec returns the wire codec in use.
func (c *Cluster) Codec() wire.Codec { return c.codec }

// Nodes returns the live node count.
func (c *Cluster) Nodes() int {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.d.N()
}

// Node returns the node for id, or nil.
func (c *Cluster) Node(id graph.NodeID) *Node {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.nodeLocked(id)
}

// nodeLocked resolves id to its live node; caller holds memMu.
func (c *Cluster) nodeLocked(id graph.NodeID) *Node {
	i, ok := c.d.IndexOf(id)
	if !ok || i >= len(c.nodes) {
		return nil
	}
	return c.nodes[i]
}

// State returns node id's current register content.
func (c *Cluster) State(id graph.NodeID) runtime.State {
	nd := c.Node(id)
	if nd == nil {
		return nil
	}
	return nd.State()
}

// SetState writes node id's register directly — initial configurations
// and fault injection. Call only between ticks (or before Serve).
func (c *Cluster) SetState(id graph.NodeID, s runtime.State) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	nd := c.nodeLocked(id)
	if nd == nil {
		panic(fmt.Sprintf("cluster: unknown node %d", id))
	}
	c.write(nd, s)
}

// write is an out-of-band register write. Caller holds memMu.
func (c *Cluster) write(nd *Node, s runtime.State) {
	nd.setState(s)
	c.markDue(nd.slot)
}

// markDue makes dense slot i run at the next Tick: an input reached its
// node from outside its round. Caller holds memMu.
func (c *Cluster) markDue(i int) { c.due[i] = 0 }

// InitArbitrary fills every register with an arbitrary state drawn
// from the algorithm — the adversarial initialization of the model.
// Neighbor caches start empty regardless: a booting cluster knows
// nothing about its neighbors until heartbeats arrive. The view the
// algorithm draws from is the node's cache as of its last round (empty
// before the first).
func (c *Cluster) InitArbitrary(rng *rand.Rand) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		v := runtime.NewView(nd.id, nd.n, nd.neighbors, nd.weights, nil, nd.peers)
		c.write(nd, c.alg.ArbitraryState(rng, v))
	}
}

// Corrupt overwrites k distinct registers with arbitrary states drawn
// from the algorithm — transient faults striking a live deployment; k is
// clamped to [0, live nodes], as runtime.Corrupt clamps it. Call between
// ticks. It returns the victims in activation order. The
// view the algorithm draws from is each victim's cache as of its last
// round — current even for a node that has been skipping rounds, since a
// round runs in every tick a cache entry or its staleness changes.
func (c *Cluster) Corrupt(k int, rng *rand.Rand) []graph.NodeID {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	live := make([]*Node, 0, len(c.nodes))
	for _, nd := range c.nodes {
		if nd != nil {
			live = append(live, nd)
		}
	}
	k = min(max(k, 0), len(live))
	victims := make([]graph.NodeID, 0, k)
	for _, i := range rng.Perm(len(live))[:k] {
		nd := live[i]
		v := runtime.NewView(nd.id, nd.n, nd.neighbors, nd.weights, nd.State(), nd.peers)
		c.write(nd, c.alg.ArbitraryState(rng, v))
		victims = append(victims, nd.id)
	}
	return victims
}

// Stop is a no-op, kept so callers can release a cluster without
// knowing its mode: a lockstep cluster holds no goroutine between ticks
// (Tick's helpers are done before it returns), and a free-running one is
// stopped by cancelling Serve's context. Ticking after Stop is fine.
func (c *Cluster) Stop() {}

// tickShard is the run of due slots a Tick worker claims per bump of
// the shared cursor: long enough that the atomic add is noise against
// ~32 node rounds, short enough that a few hundred due nodes already
// make more chunks than cores, so a slow chunk does not leave a core idle.
const tickShard = 32

// never is the due tick of a vacated slot.
const never = ^uint64(0)

// tickNodes runs the tick of every node whose due entry has come round,
// storing the next one its tick returns: one pass over due lists them,
// then runtime.ParallelFor shards the list over up to GOMAXPROCS
// workers, the caller being one. Which worker ran which node cannot
// reach any count — during its round a node touches only its own fields
// and due entry, its own sender-owned transport buffer and the gateway's
// locks; frame order and fault fates are fixed later, at Step. With one
// worker (GOMAXPROCS=1, or at most tickShard due) no goroutine starts.
// Caller holds memMu.
func (c *Cluster) tickNodes(tick uint64) {
	c.run = c.run[:0]
	for i, at := range c.due {
		if at <= tick {
			c.run = append(c.run, int32(i))
		}
	}
	runtime.ParallelFor(len(c.run), tickShard, func(lo, hi int) {
		for _, i := range c.run[lo:hi] {
			c.due[i] = c.nodes[i].tick(tick, &c.cfg, c.gw)
		}
	})
}

// Tick runs one lockstep round: every due node's tick runs between two
// barriers, sharded over up to GOMAXPROCS workers (see tickNodes), then
// the transport delivers what the nodes sent, in deterministic order,
// marking each recipient due. Requires a Stepper transport.
func (c *Cluster) Tick() {
	if c.step == nil {
		panic("cluster: Tick over a transport with no lockstep Step; use Serve")
	}
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	tick := c.tick.Add(1)
	// Between the barriers only δ writes happen, at most one per node:
	// the counter's step is the number of registers this tick changed.
	// Out-of-band writes between ticks reach the gateway below but not
	// the quiet count.
	before := c.regWrites.Load()
	c.tickNodes(tick)
	changed := c.regWrites.Load() - before
	c.step.Step(tick)
	c.changedLast.Store(changed)
	if changed > 0 {
		c.lastChangeTick.Store(tick)
	}
	c.observeWrites()
}

// observeWrites reports whether some register was written since its
// last call, and if so refreshes the gateway's labeling. The labeling
// only moves when some register did, so a quiet cluster never re-reads
// its n registers; a membership or link change that writes none reaches
// the labeling through the mutator's own Gateway.publish call. Caller
// holds memMu and is the cluster clock (see seenWrites).
func (c *Cluster) observeWrites() bool {
	w := c.regWrites.Load()
	if w == c.seenWrites {
		return false
	}
	c.seenWrites = w
	if c.gw != nil {
		c.gw.refresh()
	}
	return true
}

// Ticks returns the cluster clock: lockstep ticks driven so far, or in
// Serve the tick passes of worker 0.
func (c *Cluster) Ticks() uint64 { return c.tick.Load() }

// ChangedLastTick returns how many registers changed in the last tick.
func (c *Cluster) ChangedLastTick() int { return int(c.changedLast.Load()) }

// RunUntilQuiet ticks until no register has changed for quiet
// consecutive ticks — the message-passing image of the paper's silence
// — or until maxTicks. It returns the ticks consumed and whether quiet
// was reached.
//
// quiet must exceed the heartbeat period plus the transport's worst
// delivery delay: then every frame still in flight was sent while all
// registers already held their current values, so it carries a state
// the receiver's cache either has (newer seq, equal content — a no-op
// update) or has superseded, and stability is a true fixpoint. The
// keep-alive heartbeats themselves never stop — silence means registers
// and caches stop changing, not that links go dark.
func (c *Cluster) RunUntilQuiet(maxTicks, quiet int) (int, bool) {
	// Clamp the window against the effective keep-alive cadence: a quiet
	// sender's gap legitimately grows to BackoffCap, so a window at or
	// under it could declare quiet while a lost-keep-alive repair
	// (staleness expiry → rewrite) is still pending between two
	// backed-off frames.
	quiet = max(quiet, c.cfg.BackoffCap+1)
	// A new run invalidates the previous run's convergence measurement:
	// hold 0 until (and unless) this run reaches quiet, so a scrape
	// during re-stabilization never reports the old run's value.
	c.ticksToQuiet.Set(0)
	start := c.tick.Load()
	for c.tick.Load()-start < uint64(maxTicks) {
		c.Tick()
		if c.tick.Load()-c.lastChangeTick.Load() >= uint64(quiet) {
			ticks := int(c.tick.Load() - start)
			c.ticksToQuiet.Set(int64(ticks))
			return ticks, true
		}
	}
	return int(c.tick.Load() - start), false
}

// Serve runs the cluster free-running until ctx is cancelled, on
// W = GOMAXPROCS workers started on the same instant (see serveWorker).
// Requires endpoints that signal arrivals (async transports such as
// UDPTransport), and refuses to start while another Serve runs.
func (c *Cluster) Serve(ctx context.Context) error {
	c.memMu.RLock()
	for _, nd := range c.nodes {
		if nd != nil && nd.ep.Notify() == nil {
			c.memMu.RUnlock()
			return fmt.Errorf("cluster: transport endpoint of node %d has no notify channel; use Tick", nd.id)
		}
	}
	c.memMu.RUnlock()
	wakes := make([]chan struct{}, goruntime.GOMAXPROCS(0))
	for w := range wakes {
		wakes[w] = make(chan struct{}, 1)
	}
	if !c.wakes.CompareAndSwap(nil, &wakes) {
		return fmt.Errorf("cluster: Serve is already running")
	}
	defer c.wakes.Store(nil)
	tickers := make([]*time.Ticker, len(wakes))
	for w := range tickers {
		tickers[w] = time.NewTicker(c.cfg.Interval)
	}
	var wg sync.WaitGroup
	for w := range wakes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tickers[w].Stop()
			c.serveWorker(ctx, w, len(wakes), tickers[w].C, wakes[w])
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// serveWorker drives the nodes of worker w of W — the dense slots
// i ≡ w (mod W), read afresh on every pass, so a joiner needs no spawn —
// until ctx is cancelled: a pass over all of them on every tick, and one
// over those with frames waiting whenever an endpoint signals wake.
func (c *Cluster) serveWorker(ctx context.Context, w, W int, ticks <-chan time.Time, wake <-chan struct{}) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticks:
			c.servePass(w, W, true)
		case <-wake:
			c.servePass(w, W, false)
		}
	}
}

// servePass runs worker w's nodes once under memMu's read lock, as Tick
// does, so Join, Leave, Crash and the link mutators never meet a node
// mid-round. On a tick every node runs its next local tick; otherwise
// each node with frames waiting receives and then forwards the packets
// that just arrived, so a data hop costs one datagram flight and not a
// wait for the next tick. Worker 0's tick pass ends by advancing the
// cluster clock and observing the write counter, as Tick does.
func (c *Cluster) servePass(w, W int, tick bool) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	for i := w; i < len(c.nodes); i += W {
		nd := c.nodes[i]
		switch {
		case nd == nil:
		case tick:
			nd.rx.Store(false)
			nd.tick(nd.localTick+1, &c.cfg, c.gw)
		case nd.rx.Load():
			// Cleared before the drain: a frame landing after it raises
			// the flag again and wakes the next pass.
			nd.rx.Store(false)
			nd.receive(nd.localTick, c.gw)
			if c.gw != nil {
				nd.pump(nd.localTick, c.gw)
			}
		}
	}
	if tick && w == 0 {
		if t := c.tick.Add(1); c.observeWrites() {
			c.lastChangeTick.Store(t)
		}
	}
}

// Snapshot appends every node's current register in dense-slot order —
// the bridge to the simulator's spec checkers: load the snapshot into a
// runtime.Network over the same graph and every shared-memory assertion
// (silence, closure, spec, register bounds) applies verbatim.
func (c *Cluster) Snapshot(into []runtime.State) []runtime.State {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		into = append(into, nd.State())
	}
	return into
}

// Mirror loads the cluster's registers into a fresh runtime.Network
// over the same graph, for spec checking.
func (c *Cluster) Mirror() (*runtime.Network, error) {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	net, err := runtime.NewNetwork(c.g, c.alg)
	if err != nil {
		return nil, err
	}
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if s := nd.State(); s != nil {
			net.SetState(nd.id, s)
		}
	}
	return net, nil
}

// Stats sums the per-node transport counters. The counters are atomic,
// so this is safe at any time — mid-tick, during Serve, or from a
// metrics scrape.
func (c *Cluster) Stats() Stats {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	// Retired nodes' final counters live on in the departed aggregate,
	// so totals are monotone across churn.
	var sum nodeCounters
	sum.fold(&c.departed)
	for _, nd := range c.nodes {
		if nd != nil {
			sum.fold(&nd.stats)
		}
	}
	return Stats{NodeStats: sum.snapshot(), Joins: int(c.joins.Load()),
		Leaves: int(c.leaves.Load()), Crashes: int(c.crashes.Load())}
}

// MaxRegisterBits returns the largest register over all nodes under the
// natural encoding — the space measure of the paper, unchanged by the
// transform.
func (c *Cluster) MaxRegisterBits() int {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	max := 0
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		if s := nd.State(); s != nil {
			if b := s.EncodedBits(); b > max {
				max = b
			}
		}
	}
	return max
}
