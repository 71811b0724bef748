package runtime

// Cross-engine equivalence: the dense register-file engine must
// reproduce, scheduler for scheduler, the exact execution of the
// map-backed engine it replaced — same chosen-node sequence, same
// applied writes, same move and round totals. refNetwork below is a
// trimmed copy of that pre-dense engine (map registers, from-scratch
// enabled scan per activation, snapshot views); the test drives both
// engines from identical configurations and compares full traces.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"silentspan/internal/graph"
)

// refNetwork is the reference engine: the map-backed semantics of the
// original runtime.Network, with no incremental bookkeeping at all.
type refNetwork struct {
	g      *graph.Graph
	alg    Algorithm
	states map[graph.NodeID]State
	moves  int
	rounds int
}

func newRefNetwork(g *graph.Graph, alg Algorithm) *refNetwork {
	return &refNetwork{g: g, alg: alg, states: make(map[graph.NodeID]State, g.N())}
}

// view builds a snapshot view (maps replaced by the parallel-slice
// snapshot form the dense View also supports).
func (r *refNetwork) view(v graph.NodeID) View {
	nbrs := r.g.NeighborsShared(v)
	peers := make([]State, len(nbrs))
	weights := make([]graph.Weight, len(nbrs))
	for j, u := range nbrs {
		peers[j] = r.states[u]
		w, _ := r.g.EdgeWeight(v, u)
		weights[j] = w
	}
	return View{
		ID:        v,
		N:         r.g.N(),
		Neighbors: nbrs,
		Self:      r.states[v],
		weights:   weights,
		peers:     peers,
	}
}

func (r *refNetwork) enabledOf(v graph.NodeID) bool {
	return !r.alg.Step(r.view(v)).Equal(r.states[v])
}

// enabled returns the enabled nodes by full O(n) rescan, sorted.
func (r *refNetwork) enabled() []graph.NodeID {
	var out []graph.NodeID
	for _, v := range r.g.Nodes() {
		if r.enabledOf(v) {
			out = append(out, v)
		}
	}
	return out
}

func (r *refNetwork) initArbitrary(rng *rand.Rand) {
	for _, v := range r.g.Nodes() {
		r.states[v] = r.alg.ArbitraryState(rng, r.view(v))
	}
}

// Topology mutators: the reference engine has no incremental
// bookkeeping, so churn is just graph mutation plus (for removals)
// dropping the register — its per-activation rescan picks everything
// else up. These mirror the Network mutators so the cross-engine
// equivalence test can drive both through the same churn schedule.

func (r *refNetwork) addNode(id graph.NodeID) { r.g.AddNode(id) }

func (r *refNetwork) removeNode(id graph.NodeID) error {
	if err := r.g.RemoveNode(id); err != nil {
		return err
	}
	delete(r.states, id)
	return nil
}

func (r *refNetwork) addEdge(u, v graph.NodeID, w graph.Weight) error {
	return r.g.AddEdge(u, v, w)
}

func (r *refNetwork) removeEdge(u, v graph.NodeID) error {
	return r.g.RemoveEdge(u, v)
}

// enabledSetOf builds a fresh EnabledSet over the current enabled
// nodes, so the reference engine can drive the same Scheduler values.
func (r *refNetwork) enabledSetOf(en []graph.NodeID) *EnabledSet {
	es := newEnabledSet(r.g.Dense())
	for _, v := range en {
		i, _ := r.g.Dense().IndexOf(v)
		es.add(i)
	}
	return es
}

// run replays the original Run loop: rescan, choose, compute-all-then-
// write, round bookkeeping over a pending map.
func (r *refNetwork) run(sched Scheduler, maxMoves int, trace *strings.Builder) Result {
	pending := make(map[graph.NodeID]bool)
	startRound := func() {
		for _, v := range r.enabled() {
			pending[v] = true
		}
	}
	startRound()
	for r.moves < maxMoves {
		en := r.enabled()
		if len(en) == 0 {
			break
		}
		chosen := sched.Choose(r.enabledSetOf(en), nil)
		fmt.Fprintf(trace, "choose %v\n", chosen)
		next := make([]State, len(chosen))
		for k, v := range chosen {
			next[k] = r.alg.Step(r.view(v))
		}
		for k, v := range chosen {
			if !next[k].Equal(r.states[v]) {
				r.moves++
				r.states[v] = next[k]
				fmt.Fprintf(trace, "write %d <- %s\n", v, next[k])
			}
		}
		for _, v := range chosen {
			delete(pending, v)
		}
		for v := range pending {
			if !r.enabledOf(v) {
				delete(pending, v)
			}
		}
		if len(pending) == 0 {
			r.rounds++
			startRound()
		}
	}
	silent := len(r.enabled()) == 0
	maxBits := 0
	for _, s := range r.states {
		if s != nil && s.EncodedBits() > maxBits {
			maxBits = s.EncodedBits()
		}
	}
	return Result{Rounds: r.rounds, Moves: r.moves, Silent: silent, MaxRegisterBits: maxBits}
}

// tracingScheduler wraps a scheduler, recording every choice, and
// traces the dense engine's writes via a StateListener-compatible hook.
type tracingScheduler struct {
	inner Scheduler
	trace *strings.Builder
}

func (t *tracingScheduler) Choose(enabled *EnabledSet, buf []graph.NodeID) []graph.NodeID {
	out := t.inner.Choose(enabled, buf)
	fmt.Fprintf(t.trace, "choose %v\n", out)
	return out
}

// parentState is a rich register for the equivalence test: a
// spanning-substrate-like (root, parent, dist) record, reimplemented
// here because the runtime-internal test cannot import the spanning
// package (import cycle). Multi-field states exercise Equal, peers and
// weights harder than the minState toy.
type parentState struct {
	Root   graph.NodeID
	Parent graph.NodeID
	Dist   int
}

func (s parentState) Equal(o State) bool {
	os, ok := o.(parentState)
	return ok && os == s
}

func (s parentState) EncodedBits() int {
	return BitsForValue(int(s.Root)) + BitsForValue(int(s.Parent)) + BitsForValue(s.Dist)
}

func (s parentState) String() string {
	return fmt.Sprintf("(r=%d p=%d d=%d)", s.Root, s.Parent, s.Dist)
}

type parentAlg struct{}

func (parentAlg) Name() string { return "equiv-spanning" }

func (parentAlg) Step(v View) State {
	s, ok := v.Self.(parentState)
	if !ok {
		return parentState{Root: v.ID, Parent: 0, Dist: 0}
	}
	cap := v.N - 1
	// Reset on inconsistency.
	if s.Parent == 0 {
		if s.Root != v.ID || s.Dist != 0 {
			return parentState{Root: v.ID, Parent: 0, Dist: 0}
		}
	} else {
		_, isNbr := slices.BinarySearch(v.Neighbors, s.Parent)
		if !isNbr || s.Root >= v.ID || s.Dist < 1 || s.Dist > cap {
			return parentState{Root: v.ID, Parent: 0, Dist: 0}
		}
		p, ok := v.Peer(s.Parent).(parentState)
		if !ok || p.Root != s.Root {
			return parentState{Root: v.ID, Parent: 0, Dist: 0}
		}
	}
	// Adopt the best offer.
	for _, u := range v.Neighbors {
		p, ok := v.Peer(u).(parentState)
		if !ok || p.Dist+1 > cap {
			continue
		}
		if p.Root < s.Root || (p.Root == s.Root && s.Parent != 0 && p.Dist+1 < s.Dist) {
			return parentState{Root: p.Root, Parent: u, Dist: p.Dist + 1}
		}
	}
	// Track the parent's distance.
	if s.Parent != 0 {
		p := v.Peer(s.Parent).(parentState)
		if s.Dist != p.Dist+1 {
			if p.Dist+1 <= cap {
				return parentState{Root: s.Root, Parent: s.Parent, Dist: p.Dist + 1}
			}
			return parentState{Root: v.ID, Parent: 0, Dist: 0}
		}
	}
	return s
}

func (parentAlg) ArbitraryState(rng *rand.Rand, v View) State {
	s := parentState{
		Root: graph.NodeID(rng.Intn(2*v.N) + 1),
		Dist: rng.Intn(v.N + 2),
	}
	if len(v.Neighbors) > 0 && rng.Intn(3) != 0 {
		s.Parent = v.Neighbors[rng.Intn(len(v.Neighbors))]
	}
	return s
}

// equivSchedulers is the scheduler matrix of the equivalence and
// determinism tests. Constructors take a seed so both engines (and both
// determinism runs) get identical fresh instances.
func equivSchedulers() map[string]func(seed int64) Scheduler {
	return map[string]func(int64) Scheduler{
		"central":       func(int64) Scheduler { return Central() },
		"synchronous":   func(int64) Scheduler { return Synchronous() },
		"roundrobin":    func(int64) Scheduler { return RoundRobin() },
		"adversarial":   func(int64) Scheduler { return AdversarialUnfair() },
		"randomcentral": func(seed int64) Scheduler { return RandomCentral(rand.New(rand.NewSource(seed))) },
		"randomsubset":  func(seed int64) Scheduler { return RandomSubset(rand.New(rand.NewSource(seed))) },
	}
}

func TestDenseEngineMatchesReferenceEngine(t *testing.T) {
	algs := map[string]Algorithm{
		"min":      minAlg{},
		"spanning": parentAlg{},
	}
	for schedName, mkSched := range equivSchedulers() {
		for algName, alg := range algs {
			t.Run(schedName+"/"+algName, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed))
					g := graph.RandomConnected(24, 0.15, rng)

					dense, err := NewNetwork(g, alg)
					if err != nil {
						t.Fatal(err)
					}
					dense.InitArbitrary(rand.New(rand.NewSource(seed + 50)))
					ref := newRefNetwork(g, alg)
					ref.initArbitrary(rand.New(rand.NewSource(seed + 50)))
					for _, v := range g.Nodes() {
						ds, rs := dense.State(v), ref.states[v]
						if (ds == nil) != (rs == nil) || (ds != nil && !ds.Equal(rs)) {
							t.Fatalf("seed %d: initial states differ at node %d", seed, v)
						}
					}

					var denseTrace, refTrace strings.Builder
					dense.AddStateListener(func(v graph.NodeID, old, new State) {
						fmt.Fprintf(&denseTrace, "write %d <- %s\n", v, new)
					})
					denseRes, err := dense.Run(&tracingScheduler{inner: mkSched(seed), trace: &denseTrace}, 100000)
					if err != nil {
						t.Fatal(err)
					}
					refRes := ref.run(mkSched(seed), 100000, &refTrace)

					if denseRes != refRes {
						t.Errorf("seed %d: results differ: dense %+v, reference %+v", seed, denseRes, refRes)
					}
					if got, want := denseTrace.String(), refTrace.String(); got != want {
						t.Fatalf("seed %d: move traces diverge.\ndense:\n%s\nreference:\n%s", seed, head(got), head(want))
					}
					if !denseRes.Silent {
						t.Errorf("seed %d: run not silent", seed)
					}
				}
			})
		}
	}
}

// TestDenseEngineMatchesReferenceUnderChurn extends the equivalence to
// live topology churn: both engines start from identical graphs and
// configurations, stabilize, get the same seeded churn batch (joins,
// leaves, link flaps), stabilize again, and so on — traces, results,
// and final registers must agree at every phase. This is the guard
// that slot recycling, the unpacked adjacency rows, and the incremental
// enabled-set maintenance change no observable semantics.
func TestDenseEngineMatchesReferenceUnderChurn(t *testing.T) {
	for schedName, mkSched := range equivSchedulers() {
		t.Run(schedName, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := graph.RandomConnected(18, 0.2, rng)
				gRef := g.Clone()

				dense, err := NewNetwork(g, parentAlg{})
				if err != nil {
					t.Fatal(err)
				}
				dense.InitArbitrary(rand.New(rand.NewSource(seed + 90)))
				ref := newRefNetwork(gRef, parentAlg{})
				ref.initArbitrary(rand.New(rand.NewSource(seed + 90)))

				var denseTrace, refTrace strings.Builder
				dense.AddStateListener(func(v graph.NodeID, old, new State) {
					if new != nil {
						fmt.Fprintf(&denseTrace, "write %d <- %s\n", v, new)
					}
				})

				churn := rand.New(rand.NewSource(seed + 700))
				nextID := graph.NodeID(300)
				for phase := 0; phase < 8; phase++ {
					res, err := dense.Run(&tracingScheduler{inner: mkSched(seed), trace: &denseTrace}, dense.Moves()+50_000)
					if err != nil {
						t.Fatal(err)
					}
					refRes := ref.run(mkSched(seed), ref.moves+50_000, &refTrace)
					if res != refRes {
						t.Fatalf("phase %d: results differ: dense %+v, reference %+v", phase, res, refRes)
					}
					if got, want := denseTrace.String(), refTrace.String(); got != want {
						t.Fatalf("phase %d: traces diverge.\ndense:\n%s\nreference:\n%s", phase, head(got), head(want))
					}
					for _, v := range g.Nodes() {
						ds, rs := dense.State(v), ref.states[v]
						if (ds == nil) != (rs == nil) || (ds != nil && !ds.Equal(rs)) {
							t.Fatalf("phase %d: states differ at node %d: %v vs %v", phase, v, ds, rs)
						}
					}

					// Same churn batch on both engines.
					for k := 0; k < 3; k++ {
						nodes := g.Nodes()
						switch op := churn.Intn(8); {
						case op < 3: // link up
							u := nodes[churn.Intn(len(nodes))]
							v := nodes[churn.Intn(len(nodes))]
							if u == v || g.HasEdge(u, v) {
								continue
							}
							w := graph.Weight(50_000 + int(nextID)*10 + k)
							if err := dense.AddEdge(u, v, w); err != nil {
								t.Fatal(err)
							}
							if err := ref.addEdge(u, v, w); err != nil {
								t.Fatal(err)
							}
						case op < 6: // link down
							edges := g.Edges()
							if len(edges) == 0 {
								continue
							}
							e := edges[churn.Intn(len(edges))]
							if err := dense.RemoveEdge(e.U, e.V); err != nil {
								t.Fatal(err)
							}
							if err := ref.removeEdge(e.U, e.V); err != nil {
								t.Fatal(err)
							}
						case op < 7: // leave
							if len(nodes) <= 3 {
								continue
							}
							v := nodes[churn.Intn(len(nodes))]
							if err := dense.RemoveNode(v); err != nil {
								t.Fatal(err)
							}
							if err := ref.removeNode(v); err != nil {
								t.Fatal(err)
							}
						default: // join
							if err := dense.AddNode(nextID); err != nil {
								t.Fatal(err)
							}
							ref.addNode(nextID)
							anchor := nodes[churn.Intn(len(nodes))]
							w := graph.Weight(90_000 + int(nextID))
							if err := dense.AddEdge(nextID, anchor, w); err != nil {
								t.Fatal(err)
							}
							if err := ref.addEdge(nextID, anchor, w); err != nil {
								t.Fatal(err)
							}
							nextID++
						}
					}
					if en := dense.Enabled(); !slices.Equal(en, ref.enabled()) {
						t.Fatalf("phase %d: enabled sets diverge after churn: dense %v, ref %v", phase, en, ref.enabled())
					}
				}
			}
		})
	}
}

func head(s string) string {
	lines := strings.Split(s, "\n")
	if len(lines) > 40 {
		lines = lines[:40]
	}
	return strings.Join(lines, "\n")
}

// TestSchedulerDeterminism pins the chosen-node order of the seeded
// schedulers: two runs from the same seed must activate the same nodes
// in the same order, so performance refactors cannot silently change
// execution traces.
func TestSchedulerDeterminism(t *testing.T) {
	for _, schedName := range []string{"randomcentral", "randomsubset", "adversarial", "roundrobin", "central"} {
		mkSched := equivSchedulers()[schedName]
		t.Run(schedName, func(t *testing.T) {
			runOnce := func() string {
				rng := rand.New(rand.NewSource(7))
				g := graph.RandomConnected(30, 0.12, rng)
				net, err := NewNetwork(g, parentAlg{})
				if err != nil {
					t.Fatal(err)
				}
				net.InitArbitrary(rand.New(rand.NewSource(77)))
				var trace strings.Builder
				res, err := net.Run(&tracingScheduler{inner: mkSched(9), trace: &trace}, 100000)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Silent {
					t.Fatal("not silent")
				}
				fmt.Fprintf(&trace, "rounds=%d moves=%d\n", res.Rounds, res.Moves)
				return trace.String()
			}
			first, second := runOnce(), runOnce()
			if first != second {
				t.Errorf("two seeded runs diverge:\n%s\nvs\n%s", head(first), head(second))
			}
		})
	}
}
