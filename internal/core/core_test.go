package core

import (
	"fmt"
	"math/rand"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// depthTask is a minimal test task: φ(T) = Σ depths − (n−1); zero only
// on the star rooted at node 1 of a complete graph. Improvements hook a
// maximal-depth node directly under the root.
type depthTask struct{}

func (depthTask) Name() string { return "depth-test" }

func (depthTask) Value(g *graph.Graph, t *trees.Tree) (int, error) {
	phi := 0
	for _, d := range t.Depths() {
		phi += d
	}
	return phi - (g.N() - 1), nil
}

func (depthTask) MaxValue(g *graph.Graph) int { return g.N() * g.N() }

func (depthTask) Improve(g *graph.Graph, t *trees.Tree) (LabelInfo, []Swap, int, bool, error) {
	info := LabelInfo{MaxBits: runtime.BitsForValue(g.N()), Rounds: 1}
	root := t.Root()
	var deep graph.NodeID
	best := 1
	for v, d := range t.Depths() {
		if d > best {
			best, deep = d, v
		}
	}
	if deep == 0 {
		return info, nil, 1, false, nil
	}
	return info, []Swap{{
		Add:    graph.Edge{U: deep, V: root},
		Remove: graph.Edge{U: deep, V: t.Parent(deep)},
	}}, 1, true, nil
}

// brokenTask claims positive potential but offers no improvement.
type brokenTask struct{ depthTask }

func (brokenTask) Improve(g *graph.Graph, t *trees.Tree) (LabelInfo, []Swap, int, bool, error) {
	return LabelInfo{MaxBits: runtime.BitsForValue(g.N()), Rounds: 1}, nil, 1, false, nil
}

// nonDecreasingTask proposes a swap that does not lower φ.
type nonDecreasingTask struct{ depthTask }

func (nonDecreasingTask) Value(g *graph.Graph, t *trees.Tree) (int, error) { return 7, nil }

func TestRunSequentialReachesFixpoint(t *testing.T) {
	g := graph.Complete(8)
	t0, err := trees.DFSTree(g, 1) // a path: maximal potential
	if err != nil {
		t.Fatal(err)
	}
	final, trace, err := RunSequential(g, t0, depthTask{})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := depthTask{}.Value(g, final)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 0 {
		t.Errorf("final φ = %d", phi)
	}
	if trace.Improvements == 0 {
		t.Error("no improvements recorded")
	}
	if len(trace.Potentials) != trace.Improvements+1 {
		t.Errorf("potential trace length %d, improvements %d", len(trace.Potentials), trace.Improvements)
	}
}

func TestRunSequentialDetectsBrokenTask(t *testing.T) {
	g := graph.Complete(6)
	t0, err := trees.DFSTree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunSequential(g, t0, brokenTask{}); err == nil {
		t.Error("engine accepted φ > 0 with no improvement")
	}
	if _, _, err := RunSequential(g, t0, nonDecreasingTask{}); err == nil {
		t.Error("engine accepted a non-decreasing potential")
	}
}

func TestApplyNestValidatesSwaps(t *testing.T) {
	g := graph.Ring(6)
	t0, err := trees.BFSTree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Removing an edge not on the fundamental cycle must fail.
	nte := t0.NonTreeEdges(g)[0]
	_, err = ApplyNest(t0, []Swap{{Add: nte, Remove: graph.Edge{U: 1, V: 99}}})
	if err == nil {
		t.Error("ApplyNest accepted a bogus removal")
	}
}

func TestExecuteSwapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		g := graph.RandomConnected(10+rng.Intn(15), 0.3, rng)
		tr, err := trees.RandomSpanningTree(g, g.MinID(), rng)
		if err != nil {
			t.Fatal(err)
		}
		nte := tr.NonTreeEdges(g)
		if len(nte) == 0 {
			continue
		}
		e := nte[rng.Intn(len(nte))]
		ces := tr.CycleEdges(e)
		f := ces[rng.Intn(len(ces))]

		want, err := tr.Swap(e, f)
		if err != nil {
			t.Fatal(err)
		}

		net, err := runtime.NewNetwork(g, switching.Algorithm{})
		if err != nil {
			t.Fatal(err)
		}
		if err := switching.InitFromTree(net, tr); err != nil {
			t.Fatal(err)
		}
		net.AddMonitor(switching.LoopFreeMonitor())
		var trace Trace
		got, err := ExecuteSwap(net, tr, Swap{Add: e, Remove: f}, runtime.Central(), 2_000_000, &trace)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, x := range want.Nodes() {
			if got.Parent(x) != want.Parent(x) {
				t.Fatalf("trial %d: node %d parent %d, want %d (swap %v-%v)",
					trial, x, got.Parent(x), want.Parent(x), e, f)
			}
		}
		if !net.Silent() {
			t.Fatal("network not silent after swap")
		}
	}
}

func TestRunDistributedOnTestTask(t *testing.T) {
	g := graph.Complete(7)
	final, trace, err := RunDistributed(g, depthTask{}, EngineOptions{
		Monitor: true,
		Rng:     rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := depthTask{}.Value(g, final)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 0 {
		t.Errorf("final φ = %d", phi)
	}
	if trace.Rounds == 0 || trace.Moves == 0 {
		t.Error("missing accounting")
	}
}

func TestSwapString(t *testing.T) {
	s := Swap{Add: graph.Edge{U: 1, V: 2}, Remove: graph.Edge{U: 3, V: 4}}
	if s.String() != "+{1,2} -{3,4}" {
		t.Errorf("String() = %q", s.String())
	}
	if fmt.Sprintf("%v", s) == "" {
		t.Error("empty format")
	}
}

// TestSwapMisuseIsAnError: a tree edge as the added edge, or an added
// edge with an endpoint outside the tree, is an error from Swap,
// ApplyNest and ExecuteSwap alike, never a panic.
func TestSwapMisuseIsAnError(t *testing.T) {
	g := graph.Ring(6)
	tr, err := trees.BFSTree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	nte := tr.NonTreeEdges(g)[0]
	f := tr.CycleEdges(nte)[0]
	for _, c := range []struct {
		name string
		sw   Swap
	}{
		{"tree edge added", Swap{Add: f, Remove: f}},
		{"one endpoint outside the tree", Swap{Add: graph.Edge{U: 1, V: 99}, Remove: f}},
		{"both endpoints outside the tree", Swap{Add: graph.Edge{U: 98, V: 99}, Remove: f}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := tr.Swap(c.sw.Add, c.sw.Remove); err == nil {
				t.Error("Swap accepted it")
			}
			if _, err := ApplyNest(tr, []Swap{c.sw}); err == nil {
				t.Error("ApplyNest accepted it")
			}
			net, err := runtime.NewNetwork(g, switching.Algorithm{})
			if err != nil {
				t.Fatal(err)
			}
			if err := switching.InitFromTree(net, tr); err != nil {
				t.Fatal(err)
			}
			if _, err := ExecuteSwap(net, tr, c.sw, runtime.Central(), 1000, &Trace{}); err == nil {
				t.Error("ExecuteSwap accepted it")
			}
		})
	}
}
