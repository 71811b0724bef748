package runtime_test

import (
	"math/rand"
	"testing"

	"silentspan/internal/bfs"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
)

// TestWindowedRunCountsWholeRounds: a run split into windows — one Run
// call per window, as the serving episode's repair windows make — is
// the same execution as one Run to silence, so it must take the same
// moves and complete the same rounds. A Run that restarted the round
// at every call would drop the round in progress at each window edge.
func TestWindowedRunCountsWholeRounds(t *testing.T) {
	cases := []struct {
		name  string
		alg   runtime.Algorithm
		sched func() runtime.Scheduler
	}{
		{"bfs/round-robin", bfs.Algorithm{}, runtime.RoundRobin},
		{"bfs/random-subset", bfs.Algorithm{}, func() runtime.Scheduler {
			return runtime.RandomSubset(rand.New(rand.NewSource(3)))
		}},
		{"spanning/round-robin", spanning.Algorithm{}, runtime.RoundRobin},
	}
	g := graph.RandomConnected(400, 0.02, rand.New(rand.NewSource(5)))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(window int) runtime.Result {
				net, err := runtime.NewNetwork(g, tc.alg)
				if err != nil {
					t.Fatal(err)
				}
				net.InitArbitrary(rand.New(rand.NewSource(9)))
				sched := tc.sched()
				for {
					res, err := net.Run(sched, net.Moves()+window)
					if err != nil {
						t.Fatal(err)
					}
					if res.Silent {
						return res
					}
				}
			}
			whole := run(1 << 30)
			for _, window := range []int{200, 50} {
				if got := run(window); got.Moves != whole.Moves || got.Rounds != whole.Rounds {
					t.Errorf("%d-move windows: %d moves in %d rounds, one run: %d moves in %d rounds",
						window, got.Moves, got.Rounds, whole.Moves, whole.Rounds)
				}
			}
			t.Logf("%d moves in %d rounds", whole.Moves, whole.Rounds)
		})
	}
}
