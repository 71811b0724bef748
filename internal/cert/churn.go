package cert

// Live-topology churn certification: the model checker's missing fault
// class. PR 3 certified recovery from register corruption on frozen
// graphs; here the graph itself moves — nodes join and leave, links
// flap, the network partitions and heals — interleaved with register
// corruption, while a packet cohort keeps flying over the incremental
// labeling of the decaying tree. Every run must re-stabilize to a
// silent, closed, spec-correct configuration of the *final* graph,
// within the register bound of the final graph, and deliver the
// surviving cohort once the labeling heals.

import (
	"fmt"
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
)

// ChurnOpKind names one churn schedule operation.
type ChurnOpKind int

// The churn operations. Partition removes a cut that splits the graph
// in two; Heal restores the most recent un-healed partition or downed
// links. Corrupt is the PR 3 fault class riding along, so recovery is
// certified under combined structural + state faults.
const (
	ChurnJoin ChurnOpKind = iota
	ChurnLeave
	ChurnLinkDown
	ChurnLinkUp
	ChurnPartition
	ChurnHeal
	ChurnCorrupt
)

// String names the kind.
func (k ChurnOpKind) String() string {
	switch k {
	case ChurnJoin:
		return "join"
	case ChurnLeave:
		return "leave"
	case ChurnLinkDown:
		return "link-down"
	case ChurnLinkUp:
		return "link-up"
	case ChurnPartition:
		return "partition"
	case ChurnHeal:
		return "heal"
	case ChurnCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("churn(%d)", int(k))
}

// ChurnOp is one schedule entry. Join carries the new node and its
// initial links; Leave the victim; link ops one edge; Partition/Heal a
// whole cut; Corrupt a victim count.
type ChurnOp struct {
	Kind  ChurnOpKind
	Node  graph.NodeID
	Edges []graph.Edge
	Count int
}

// String renders the op for traces and counterexamples.
func (op ChurnOp) String() string {
	switch op.Kind {
	case ChurnJoin:
		return fmt.Sprintf("join %d %v", op.Node, op.Edges)
	case ChurnLeave:
		return fmt.Sprintf("leave %d", op.Node)
	case ChurnLinkDown, ChurnLinkUp:
		return fmt.Sprintf("%s %v", op.Kind, op.Edges)
	case ChurnPartition, ChurnHeal:
		return fmt.Sprintf("%s cut=%v", op.Kind, op.Edges)
	case ChurnCorrupt:
		return fmt.Sprintf("corrupt %d", op.Count)
	}
	return op.Kind.String()
}

// GenerateChurnSchedule builds a seeded schedule of length ops valid
// against g: every op is checked against a shadow copy of the evolving
// graph, and the schedule ends with heals that make the final graph
// connected again (the model's stabilization target). Edge weights
// drawn for new links are globally fresh, preserving the distinct-
// weight assumption.
func GenerateChurnSchedule(g *graph.Graph, length int, seed int64) []ChurnOp {
	rng := rand.New(rand.NewSource(seed))
	sim := g.Clone()
	nextID := graph.NodeID(0)
	for _, v := range sim.Nodes() {
		if v > nextID {
			nextID = v
		}
	}
	nextID += 1 + graph.NodeID(rng.Intn(3))
	nextW := graph.Weight(1)
	for _, e := range sim.Edges() {
		if e.W > nextW {
			nextW = e.W
		}
	}
	nextW++
	freshW := func() graph.Weight {
		w := nextW
		nextW++
		return w
	}

	var (
		ops    []ChurnOp
		downed []graph.Edge // individual downed links
		cuts   [][]graph.Edge
	)
	emit := func(op ChurnOp) { ops = append(ops, op) }
	// healLatestCut restores what still applies of the most recent
	// un-healed partition and, if anything did, emits the heal.
	healLatestCut := func() {
		cut := cuts[len(cuts)-1]
		cuts = cuts[:len(cuts)-1]
		var healed []graph.Edge
		for _, e := range cut {
			if sim.HasNode(e.U) && sim.HasNode(e.V) && !sim.HasEdge(e.U, e.V) {
				sim.MustAddEdge(e.U, e.V, e.W)
				healed = append(healed, e)
			}
		}
		if len(healed) > 0 {
			emit(ChurnOp{Kind: ChurnHeal, Edges: healed})
		}
	}

	for len(ops) < length {
		nodes := sim.Nodes()
		switch k := rng.Intn(10); {
		case k < 2: // join with 1-2 links
			id := nextID
			nextID++
			cnt := 1 + rng.Intn(2)
			var es []graph.Edge
			seen := map[graph.NodeID]bool{}
			for len(es) < cnt {
				a := nodes[rng.Intn(len(nodes))]
				if seen[a] {
					break
				}
				seen[a] = true
				es = append(es, graph.Edge{U: id, V: a, W: freshW()})
			}
			sim.AddNode(id)
			for _, e := range es {
				sim.MustAddEdge(e.U, e.V, e.W)
			}
			emit(ChurnOp{Kind: ChurnJoin, Node: id, Edges: es})
		case k < 4: // leave
			if len(nodes) <= 3 {
				continue
			}
			v := nodes[rng.Intn(len(nodes))]
			if err := sim.RemoveNode(v); err != nil {
				continue
			}
			emit(ChurnOp{Kind: ChurnLeave, Node: v})
		case k < 6: // link down
			edges := sim.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			if err := sim.RemoveEdge(e.U, e.V); err != nil {
				continue
			}
			downed = append(downed, e)
			emit(ChurnOp{Kind: ChurnLinkDown, Edges: []graph.Edge{e}})
		case k < 7: // link up: heal a downed link or add a fresh one
			if len(downed) > 0 && rng.Intn(2) == 0 {
				e := downed[len(downed)-1]
				if !sim.HasNode(e.U) || !sim.HasNode(e.V) || sim.HasEdge(e.U, e.V) {
					downed = downed[:len(downed)-1]
					continue
				}
				downed = downed[:len(downed)-1]
				sim.MustAddEdge(e.U, e.V, e.W)
				emit(ChurnOp{Kind: ChurnLinkUp, Edges: []graph.Edge{e}})
				continue
			}
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			if u == v || sim.HasEdge(u, v) {
				continue
			}
			e := graph.Edge{U: u, V: v, W: freshW()}
			sim.MustAddEdge(e.U, e.V, e.W)
			emit(ChurnOp{Kind: ChurnLinkUp, Edges: []graph.Edge{e}})
		case k < 8: // partition: cut a BFS half away
			if len(nodes) < 4 || !sim.Connected() {
				continue
			}
			half := bfsHalf(sim, nodes[rng.Intn(len(nodes))])
			var cut []graph.Edge
			for _, e := range sim.Edges() {
				if half[e.U] != half[e.V] {
					cut = append(cut, e)
				}
			}
			if len(cut) == 0 {
				continue
			}
			for _, e := range cut {
				if err := sim.RemoveEdge(e.U, e.V); err != nil {
					panic(err)
				}
			}
			cuts = append(cuts, cut)
			emit(ChurnOp{Kind: ChurnPartition, Edges: cut})
		case k < 9: // heal the most recent partition
			if len(cuts) > 0 {
				healLatestCut()
			}
		default: // register corruption riding along
			emit(ChurnOp{Kind: ChurnCorrupt, Count: 1 + rng.Intn(3)})
		}
	}

	// Closing heals: restore every outstanding cut and downed link that
	// still applies, then bridge any remaining components, so the final
	// graph — the stabilization target — is connected.
	for len(cuts) > 0 {
		healLatestCut()
	}
	for !sim.Connected() {
		comps := components(sim)
		e := graph.Edge{U: comps[0][0], V: comps[1][0], W: freshW()}
		sim.MustAddEdge(e.U, e.V, e.W)
		emit(ChurnOp{Kind: ChurnLinkUp, Edges: []graph.Edge{e}})
	}
	return ops
}

// bfsHalf marks roughly half the nodes of g by BFS from start.
func bfsHalf(g *graph.Graph, start graph.NodeID) map[graph.NodeID]bool {
	target := g.N() / 2
	half := map[graph.NodeID]bool{start: true}
	queue := []graph.NodeID{start}
	for len(queue) > 0 && len(half) < target {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.NeighborsShared(v) {
			if !half[u] && len(half) < target {
				half[u] = true
				queue = append(queue, u)
			}
		}
	}
	return half
}

// components returns the connected components of g as node lists.
func components(g *graph.Graph) [][]graph.NodeID {
	var out [][]graph.NodeID
	seen := map[graph.NodeID]bool{}
	for _, v := range g.Nodes() {
		if seen[v] {
			continue
		}
		comp := []graph.NodeID{v}
		seen[v] = true
		for qi := 0; qi < len(comp); qi++ {
			for _, u := range g.NeighborsShared(comp[qi]) {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, u)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

// Survivors returns the nodes of g that are never removed by the
// schedule — the packet cohort's legal endpoints.
func Survivors(g *graph.Graph, ops []ChurnOp) []graph.NodeID {
	removed := map[graph.NodeID]bool{}
	for _, op := range ops {
		if op.Kind == ChurnLeave {
			removed[op.Node] = true
		}
	}
	var out []graph.NodeID
	for _, v := range g.Nodes() {
		if !removed[v] {
			out = append(out, v)
		}
	}
	return out
}

// ChurnTarget is what a churn schedule is applied to: the five verbs
// every op decomposes into. A simulator network and a message-passing
// cluster both implement it, so one schedule drives either.
type ChurnTarget interface {
	Join(id graph.NodeID, edges []graph.Edge) error
	Leave(id graph.NodeID) error
	AddEdge(u, v graph.NodeID, w graph.Weight) error
	RemoveEdge(u, v graph.NodeID) error
	Corrupt(count int, rng *rand.Rand) []graph.NodeID
}

// NetworkTarget is the ChurnTarget over a simulator network; AddEdge and
// RemoveEdge are the network's own.
type NetworkTarget struct{ *runtime.Network }

// Join checks the whole join before it adds the node, as Cluster.Join
// does, so a rejected join leaves the network as it was.
func (t NetworkTarget) Join(id graph.NodeID, edges []graph.Edge) error {
	if err := t.Graph().CheckJoin(id, edges); err != nil {
		return fmt.Errorf("cert: %w", err)
	}
	if err := t.AddNode(id); err != nil {
		return err
	}
	for _, e := range edges {
		if err := t.AddEdge(e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return nil
}

func (t NetworkTarget) Leave(id graph.NodeID) error { return t.RemoveNode(id) }

func (t NetworkTarget) Corrupt(count int, rng *rand.Rand) []graph.NodeID {
	return runtime.Corrupt(t.Network, count, rng)
}

// ApplyChurnOp applies one schedule op to t. Corrupt ops draw from rng.
// It returns the number of structural mutations the op stands for.
func ApplyChurnOp(t ChurnTarget, op ChurnOp, rng *rand.Rand) (int, error) {
	switch op.Kind {
	case ChurnJoin:
		if err := t.Join(op.Node, op.Edges); err != nil {
			return 0, err
		}
		return 1 + len(op.Edges), nil
	case ChurnLeave:
		return 1, t.Leave(op.Node)
	case ChurnLinkDown, ChurnPartition:
		for _, e := range op.Edges {
			if err := t.RemoveEdge(e.U, e.V); err != nil {
				return 0, err
			}
		}
		return len(op.Edges), nil
	case ChurnLinkUp, ChurnHeal:
		for _, e := range op.Edges {
			if err := t.AddEdge(e.U, e.V, e.W); err != nil {
				return 0, err
			}
		}
		return len(op.Edges), nil
	case ChurnCorrupt:
		t.Corrupt(op.Count, rng)
		return 0, nil
	}
	return 0, fmt.Errorf("cert: unknown churn op %v", op.Kind)
}

// ChurnConfig parameterizes the churn certification campaign. Zero
// values take the documented defaults.
type ChurnConfig struct {
	// MaxN: graphs on 3..MaxN nodes (default 6).
	MaxN int
	// Schedules per (graph, algorithm, daemon) (default 2).
	Schedules int
	// Length: churn ops per schedule (default 10).
	Length int
	// MaxMoves caps every stabilization (default 200000).
	MaxMoves int
	// Seed drives schedules, inits, and daemons.
	Seed int64
	// Algos restricts the algorithm set (default all five).
	Algos []routing.Algo
	// MaxCounterexamples stops the hunt (default 20).
	MaxCounterexamples int
}

func (c *ChurnConfig) fill() {
	if c.MaxN == 0 {
		c.MaxN = 6
	}
	if c.Schedules == 0 {
		c.Schedules = 2
	}
	if c.Length == 0 {
		c.Length = 10
	}
	if c.MaxMoves == 0 {
		c.MaxMoves = 200_000
	}
	if len(c.Algos) == 0 {
		c.Algos = routing.AllAlgos()
	}
	if c.MaxCounterexamples == 0 {
		c.MaxCounterexamples = 20
	}
}

// ChurnReport summarizes a churn certification campaign.
type ChurnReport struct {
	Config         ChurnConfig          `json:"config"`
	Graphs         int                  `json:"graphs"`
	Runs           int                  `json:"runs"`
	Mutations      int                  `json:"mutations"`
	PacketsSent    int                  `json:"packets_sent"`
	PacketsArrived int                  `json:"packets_arrived"`
	Worst          map[string]WorstCase `json:"worst"`
	Ledger
}

// Each certified churn run launches a cohort of churnInFlight packets
// and repairs churnMovesPerWindow moves after each op.
const (
	churnInFlight       = 8
	churnMovesPerWindow = 40
)

// churnGraphs is the instance set: per size, a path (worst diameter), a
// complete graph (worst degree), and a seeded random instance.
func churnGraphs(maxN int, seed int64) []NamedGraph {
	var out []NamedGraph
	for n := 3; n <= maxN; n++ {
		out = append(out,
			NamedGraph{Name: fmt.Sprintf("path-%d", n), G: graph.Path(n)},
			NamedGraph{Name: fmt.Sprintf("complete-%d", n), G: graph.Complete(n)},
		)
		if n >= 4 {
			rng := rand.New(rand.NewSource(seed + int64(n)))
			out = append(out, NamedGraph{
				Name: fmt.Sprintf("random-%d", n),
				G:    graph.RandomConnected(n, 0.5, rng),
			})
		}
	}
	return out
}

// RunChurn executes the churn certification campaign: every graph ×
// algorithm × daemon × seeded schedule, each run one ChurnEpisode over a
// freshly brought-up substrate.
func RunChurn(cfg ChurnConfig, logf func(format string, args ...any)) (*ChurnReport, error) {
	cfg.fill()
	rep := &ChurnReport{Config: cfg, Worst: make(map[string]WorstCase), Ledger: newLedger(cfg.MaxCounterexamples, logf)}
	instances := churnGraphs(cfg.MaxN, cfg.Seed)
	rep.Graphs = len(instances)

	for gi, ng := range instances {
		for _, a := range cfg.Algos {
			for _, spec := range Schedulers() {
				for s := 0; s < cfg.Schedules; s++ {
					seed := cfg.Seed + int64(gi*10_000+s*100)
					rep.Runs++
					out, err := runOneChurn(a, ng, spec, cfg, seed)
					rep.PacketsSent += out.Cohort.Sent
					rep.PacketsArrived += out.Cohort.Delivered()
					rep.Mutations += out.Mutations
					if err == nil {
						record(rep.Worst, a, out.Stats, ng.Name, spec.Name)
					} else if rep.falsified(ng, a, spec.Name, fmt.Sprintf("churn seed=%d", seed), err) {
						return rep, nil
					}
				}
			}
		}
		rep.progress(gi, len(instances), 5, "churned %d/%d graphs, %d runs, %d mutations, %d/%d packets, %d counterexamples",
			gi+1, len(instances), rep.Runs, rep.Mutations,
			rep.PacketsArrived, rep.PacketsSent, len(rep.Counterexamples))
	}
	return rep, nil
}

// runOneChurn is one certified churn run. The graph is cloned (the
// instance is shared across runs); the schedule is generated against
// the clone and the substrate brought up on it — the always-on
// algorithms from an arbitrary start, MST/MDST as their reference tree
// held by the switching protocol, which then carries the churn.
func runOneChurn(a routing.Algo, ng NamedGraph, spec SchedulerSpec, cfg ChurnConfig, seed int64) (ChurnOutcome, error) {
	g := ng.G.Clone()
	rng := rand.New(rand.NewSource(seed))
	sched := spec.New(seed + 1)
	ops := GenerateChurnSchedule(g, cfg.Length, seed+2)
	net, _, err := routing.BringUp(g, a, sched, cfg.MaxMoves, rng, referenceTree(a))
	if err != nil {
		return ChurnOutcome{}, fmt.Errorf("substrate: %w", err)
	}
	return ChurnEpisode{
		Algo: a, Sched: sched, InFlight: churnInFlight, MovesPerWindow: churnMovesPerWindow,
		MaxMoves: cfg.MaxMoves, PostBatch: 2,
	}.Run(net, ops, rng)
}

// ChurnEpisode is the serving episode under live-topology churn, over
// an already stabilized substrate: attach the live-router rig, launch a
// packet cohort between nodes the schedule never removes, apply the
// schedule op by op — one bounded repair window and one routing window
// over the decaying labeling after each — then re-stabilize on the final
// graph, check its spec and register bound, Live.Settle, and require
// full delivery of the fresh batch. The churn campaign certifies
// exactly this; sstsim -churn runs it with a print hook.
type ChurnEpisode struct {
	Algo  routing.Algo
	Sched runtime.Scheduler
	// InFlight sizes the cohort; MovesPerWindow is the repair budget
	// after each op; MaxMoves caps the final re-stabilization.
	InFlight, MovesPerWindow, MaxMoves int
	// PostBatch sizes the fresh post-churn batch, in packets per node.
	PostBatch int
	// OnOp, when set, observes each op once its windows have run.
	OnOp func(i int, op ChurnOp, lab *routing.Labeling)
}

// ChurnOutcome is what one episode measured. On error it holds what
// was measured up to the failure.
type ChurnOutcome struct {
	// Stats is the repair cost from the first op to final silence.
	Stats     RunStats
	Mutations int
	// Cohort accounts the packets flying through the churn (deliveries
	// and drops complete only once the episode flushed them).
	Cohort routing.InFlightStats
	// Post is the fresh batch served on the final graph.
	Post routing.Stats
}

// Run executes the episode on net. Corrupt ops, the cohort and the post
// batch draw from rng, in that launch order.
func (ep ChurnEpisode) Run(net *runtime.Network, ops []ChurnOp, rng *rand.Rand) (out ChurnOutcome, err error) {
	g := net.Graph()
	live := routing.NewLive(net)

	// The cohort: launched before the first mutation, flying throughout
	// (empty when the schedule leaves fewer than two survivors).
	flight := routing.NewFlight(routing.UniformPairs(Survivors(g, ops), ep.InFlight, rng))
	out.Cohort = flight.Stats()

	target := NetworkTarget{net}
	moves0, rounds0 := net.Moves(), net.Rounds()
	for oi, op := range ops {
		m, err := ApplyChurnOp(target, op, rng)
		out.Mutations += m
		if err != nil {
			return out, fmt.Errorf("op %d (%s): %w", oi, op, err)
		}
		if err := live.Window(ep.Sched, ep.MovesPerWindow, flight); err != nil {
			return out, fmt.Errorf("op %d (%s) repair: %w", oi, op, err)
		}
		if ep.OnOp != nil {
			ep.OnOp(oi, op, live.Labeling())
		}
	}

	// Re-stabilization on the final graph.
	res, err := net.Run(ep.Sched, net.Moves()+ep.MaxMoves)
	if err != nil {
		return out, err
	}
	out.Stats = RunStats{Moves: res.Moves - moves0, Rounds: res.Rounds - rounds0, RegisterBits: net.MaxRegisterBits()}
	if !res.Silent {
		return out, fmt.Errorf("no re-stabilization within %d moves of the final op", ep.MaxMoves)
	}
	if !g.Connected() {
		return out, fmt.Errorf("schedule bug: final graph disconnected")
	}
	if err := checkSpec(ep.Algo, g, net); err != nil {
		return out, fmt.Errorf("final-graph spec: %w", err)
	}
	if bound := RegisterBitsBound(ep.Algo, g); out.Stats.RegisterBits > bound {
		return out, fmt.Errorf("register width %d bits exceeds final-graph bound %d", out.Stats.RegisterBits, bound)
	}

	// Settle: the incremental labeling must now be the complete
	// labeling of the re-stabilized tree, and the cohort flushes over it.
	// Packets the decay classified as looped/dropped mid-churn are legal
	// casualties and are reported, not failed (the chaos campaigns'
	// contract). A fresh post-churn batch must deliver 100% — the
	// serving-layer claim on the final graph.
	s, err := live.Settle(ep.Algo, rng, flight, ep.PostBatch*g.N())
	out.Cohort, out.Post = s.Cohort, s.Post
	if err != nil {
		return out, err
	}
	if out.Post.DeliveryRate() != 1 {
		return out, fmt.Errorf("post-churn batch delivery %.3f, want 1.0", out.Post.DeliveryRate())
	}
	return out, nil
}
