package core_test

import (
	"math/rand"
	"testing"

	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/mst"
	"silentspan/internal/runtime"
)

// choiceCounter counts the activations of the scheduler it wraps.
type choiceCounter struct {
	runtime.Scheduler
	n int
}

func (c *choiceCounter) Choose(enabled *runtime.EnabledSet, buf []graph.NodeID) []graph.NodeID {
	c.n++
	return c.Scheduler.Choose(enabled, buf)
}

// TestRunDistributedChargesEachMoveOnce: under the adversarial unfair
// daemon every activation is exactly one move, so the trace's move count
// over the substrate run and every swap hop equals the number of
// activations — each run on the one network is charged its own moves,
// not the network's running total.
func TestRunDistributedChargesEachMoveOnce(t *testing.T) {
	g := graph.RandomConnected(20, 0.2, rand.New(rand.NewSource(1)))
	for _, task := range []core.Task{mst.Task{}, mdst.Task{}} {
		sched := &choiceCounter{Scheduler: runtime.AdversarialUnfair()}
		_, trace, err := core.RunDistributed(g, task, core.EngineOptions{
			Scheduler: sched,
			Rng:       rand.New(rand.NewSource(2)),
		})
		if err != nil {
			t.Fatalf("%s: %v", task.Name(), err)
		}
		if trace.Improvements == 0 {
			t.Fatalf("%s: no improvement, so no run after the substrate's to charge", task.Name())
		}
		if trace.Moves != sched.n {
			t.Errorf("%s: trace charges %d moves for %d activations of a one-move daemon", task.Name(), trace.Moves, sched.n)
		}
	}
}

// TestRunDistributedStuckSeeds: from these two arbitrary starts the
// switching substrate once fell silent with a subtree-prune wave stuck
// under a node whose distance was already ⊥; the next injected switch
// was dropped and both constructions failed with "φ did not decrease".
// The graph and the engine seed are drawn from s as the benchmark's
// sim-stack draws them.
func TestRunDistributedStuckSeeds(t *testing.T) {
	for _, s := range []int64{5129, 7456} {
		rng := rand.New(rand.NewSource(s))
		g := graph.RandomConnected(20, 0.2, rng)
		engineSeed := rng.Int63()
		for _, task := range []core.Task{mst.Task{}, mdst.Task{}} {
			final, _, err := core.RunDistributed(g, task, core.EngineOptions{Rng: rand.New(rand.NewSource(engineSeed))})
			if err != nil {
				t.Errorf("s=%d %s: %v", s, task.Name(), err)
				continue
			}
			if phi, err := task.Value(g, final); err != nil || phi != 0 {
				t.Errorf("s=%d %s: final φ = %d (%v), want 0", s, task.Name(), phi, err)
			}
		}
	}
}
