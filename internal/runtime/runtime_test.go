package runtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"silentspan/internal/graph"
)

// minState is a toy register for tests: an integer claim of the minimum
// identity in the network.
type minState struct {
	min graph.NodeID
}

func (s minState) Equal(o State) bool {
	os, ok := o.(minState)
	return ok && os.min == s.min
}

func (s minState) EncodedBits() int { return BitsForValue(int(s.min)) }

func (s minState) String() string { return fmt.Sprintf("min=%d", s.min) }

// minAlg stabilizes every register to the minimum node ID: a silent
// self-stabilizing algorithm in one rule, used to exercise the runtime.
//
// Rule: v sets min(v) = min(ID(v), min over neighbors of min(u)), but a
// claimed minimum below every ID it can justify dies out because we clamp
// at the node's own ID when the claim is smaller than all neighbor claims
// and own ID... To keep the toy simple and still self-stabilizing, the
// rule recomputes from scratch: min(v) = min(ID(v), min_u min(u)) can lock
// in a fake too-small value, so instead each node distrusts its own stored
// value; fake minima persist only if a neighbor keeps asserting them. To
// guarantee stabilization from arbitrary states the test initializes
// claims >= 1 and IDs are >= 1 while corruption draws from valid range.
type minAlg struct{}

func (minAlg) Name() string { return "min-propagation" }

func (minAlg) Step(v View) State {
	best := v.ID
	for _, u := range v.Neighbors {
		if p, ok := v.Peer(u).(minState); ok && p.min < best {
			best = p.min
		}
	}
	return minState{min: best}
}

func (minAlg) ArbitraryState(rng *rand.Rand, v View) State {
	return minState{min: graph.NodeID(rng.Intn(v.N) + 1)}
}

func newTestNetwork(t *testing.T, g *graph.Graph) *Network {
	t.Helper()
	net, err := NewNetwork(g, minAlg{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewNetworkRejectsBadGraphs(t *testing.T) {
	if _, err := NewNetwork(graph.New(), minAlg{}); err == nil {
		t.Error("accepted empty graph")
	}
	g := graph.New()
	g.AddNode(1)
	g.AddNode(2)
	if _, err := NewNetwork(g, minAlg{}); err == nil {
		t.Error("accepted disconnected graph")
	}
}

func TestRunStabilizesUnderAllSchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scheds := map[string]func() Scheduler{
		"synchronous":   Synchronous,
		"central":       Central,
		"roundrobin":    RoundRobin,
		"adversarial":   AdversarialUnfair,
		"randomcentral": func() Scheduler { return RandomCentral(rand.New(rand.NewSource(2))) },
		"randomsubset":  func() Scheduler { return RandomSubset(rand.New(rand.NewSource(3))) },
	}
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			g := graph.RandomConnected(25, 0.15, rng)
			net := newTestNetwork(t, g)
			net.InitArbitrary(rng)
			res, err := net.Run(mk(), 100000)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Silent {
				t.Fatalf("did not reach silence in %d moves", res.Moves)
			}
			for _, v := range g.Nodes() {
				if s := net.State(v).(minState); s.min != 1 {
					t.Errorf("node %d stabilized to min=%d, want 1", v, s.min)
				}
			}
			if err := CheckSilentStable(net); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestRoundsAtMostDiameterForMin(t *testing.T) {
	// On a path with IDs increasing left to right, min-propagation takes
	// at most n-1 rounds from a worst-case initialization.
	g := graph.Path(20)
	net := newTestNetwork(t, g)
	for _, v := range g.Nodes() {
		net.SetState(v, minState{min: v}) // everyone claims itself
	}
	res, err := net.Run(AdversarialUnfair(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("not silent")
	}
	if res.Rounds > 20 {
		t.Errorf("rounds = %d, want <= 20 (diameter bound)", res.Rounds)
	}
}

func TestSynchronousRoundsEqualSteps(t *testing.T) {
	g := graph.Path(10)
	net := newTestNetwork(t, g)
	for _, v := range g.Nodes() {
		net.SetState(v, minState{min: v})
	}
	res, err := net.Run(Synchronous(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Under the synchronous daemon, information travels one hop per round:
	// 9 rounds for min=1 to reach node 10.
	if res.Rounds != 9 {
		t.Errorf("rounds = %d, want 9", res.Rounds)
	}
}

func TestMovesCounted(t *testing.T) {
	g := graph.Path(5)
	net := newTestNetwork(t, g)
	for _, v := range g.Nodes() {
		net.SetState(v, minState{min: v})
	}
	res, err := net.Run(Central(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Error("no moves counted")
	}
	if net.Moves() != res.Moves {
		t.Error("Moves() accessor disagrees with result")
	}
}

func TestMaxMovesCap(t *testing.T) {
	g := graph.Path(50)
	net := newTestNetwork(t, g)
	for _, v := range g.Nodes() {
		net.SetState(v, minState{min: v})
	}
	res, err := net.Run(Central(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Silent {
		t.Error("claimed silence after 3 moves on a 50-path")
	}
	if res.Moves > 3 {
		t.Errorf("moves = %d, want <= 3", res.Moves)
	}
}

func TestMonitorRejection(t *testing.T) {
	g := graph.Path(5)
	net := newTestNetwork(t, g)
	for _, v := range g.Nodes() {
		net.SetState(v, minState{min: v})
	}
	net.AddMonitor(MonitorFunc(func(n *Network) error {
		return fmt.Errorf("always reject")
	}))
	if _, err := net.Run(Central(), 1000); err == nil {
		t.Error("monitor rejection not surfaced")
	}
}

func TestCorruptAndRecover(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.Grid(4, 4)
	net := newTestNetwork(t, g)
	net.InitArbitrary(rng)
	if _, err := net.Run(Central(), 100000); err != nil {
		t.Fatal(err)
	}
	victims := Corrupt(net, 5, rng)
	if len(victims) != 5 {
		t.Fatalf("corrupted %d nodes, want 5", len(victims))
	}
	res, err := net.Run(Central(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatal("did not re-stabilize after corruption")
	}
	for _, v := range g.Nodes() {
		if s := net.State(v).(minState); s.min != 1 {
			t.Errorf("node %d: min=%d after recovery", v, s.min)
		}
	}
}

func TestEnabledCacheConsistency(t *testing.T) {
	// The incremental enabled cache must agree with a from-scratch scan
	// after arbitrary SetState calls.
	rng := rand.New(rand.NewSource(4))
	g := graph.Ring(12)
	net := newTestNetwork(t, g)
	net.InitArbitrary(rng)
	for i := 0; i < 50; i++ {
		v := graph.NodeID(rng.Intn(12) + 1)
		net.SetState(v, minState{min: graph.NodeID(rng.Intn(12) + 1)})
		fresh := map[graph.NodeID]bool{}
		for _, u := range g.Nodes() {
			next := net.alg.Step(net.view(u))
			fresh[u] = !next.Equal(net.State(u))
		}
		for _, u := range net.Enabled() {
			if !fresh[u] {
				t.Fatalf("cache says %d enabled, fresh scan disagrees", u)
			}
			delete(fresh, u)
		}
		for u, en := range fresh {
			if en {
				t.Fatalf("fresh scan says %d enabled, cache disagrees", u)
			}
		}
	}
}

// TestCheckSilentStableIsIndependent: CheckSilentStable re-evaluates δ
// from the register file, so it catches a write the engine's worklist
// never saw — and an enabled set that disagrees with δ — where a check
// reading only the maintained set would pass.
func TestCheckSilentStableIsIndependent(t *testing.T) {
	g := graph.Path(6)
	net := newTestNetwork(t, g)
	net.InitArbitrary(rand.New(rand.NewSource(8)))
	if res, err := net.Run(Synchronous(), 1000); err != nil || !res.Silent {
		t.Fatalf("not silent: %+v, %v", res, err)
	}
	if err := CheckSilentStable(net); err != nil {
		t.Fatalf("silent network rejected: %v", err)
	}
	for i := 0; i < net.d.Slots(); i++ {
		if net.StateAt(i) != net.State(net.d.ID(i)) {
			t.Fatalf("StateAt(%d) disagrees with State(%d)", i, net.d.ID(i))
		}
	}

	// A register written behind the worklist: the set still says silent.
	i, _ := net.d.IndexOf(4)
	net.states[i] = minState{min: 3}
	if !net.Silent() {
		t.Fatal("the write behind the worklist reached the enabled set")
	}
	err := CheckSilentStable(net)
	if err == nil || !strings.Contains(err.Error(), "node 4 would move") {
		t.Fatalf("CheckSilentStable = %v, want node 4 named", err)
	}
	net.states[i] = minState{min: 1}

	// An enabled set holding a node δ leaves unchanged.
	j, _ := net.d.IndexOf(2)
	net.enabled.add(j)
	err = CheckSilentStable(net)
	if err == nil || !strings.Contains(err.Error(), "holds node 2") {
		t.Fatalf("CheckSilentStable = %v, want the stale member 2 named", err)
	}
}

func TestBitsForValue(t *testing.T) {
	cases := []struct{ max, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {255, 8}, {256, 9},
	}
	for _, c := range cases {
		if got := BitsForValue(c.max); got != c.want {
			t.Errorf("BitsForValue(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestViewPanicsOnIllegalReads(t *testing.T) {
	g := graph.Path(3)
	net := newTestNetwork(t, g)
	net.InitArbitrary(rand.New(rand.NewSource(1)))
	v := net.view(1)
	defer func() {
		if recover() == nil {
			t.Error("Peer allowed reading a non-neighbor register")
		}
	}()
	v.Peer(3) // 3 is two hops from 1 on the path
}
