package cert

import (
	"math/rand"
	"testing"

	"silentspan/internal/bfs"
	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/mst"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// TestRegisterWidthStaysLogarithmic is the space-optimality regression:
// across random graphs of n ∈ {10², 10³, 10⁴}, the widest register of a
// stabilized configuration must stay within the per-algorithm paper
// bound for every substrate — and that bound is itself pinned to
// O(log n) (8·⌈log₂ n⌉ + 8), so a linear-width regression in any State
// encoding cannot hide behind a quietly inflated bound.
//
// The BFS substrate stabilizes the always-on rule system from an
// arbitrary configuration; MST and MDST measure the silent
// configuration the engines stabilize to (reference tree loaded into
// the switching protocol — the identical registers, reachable at 10⁴
// scale without the full improvement loop).
func TestRegisterWidthStaysLogarithmic(t *testing.T) {
	sizes := []int{100, 1_000, 10_000}
	if testing.Short() {
		sizes = []int{100, 1_000}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomConnected(n, 3/float64(n), rng)
		logBound := 8*runtime.BitsForValue(n) + 8

		nets := map[string]*runtime.Network{}

		// BFS: full stabilization from an arbitrary configuration.
		bnet, err := runtime.NewNetwork(g, bfs.Algorithm{})
		if err != nil {
			t.Fatal(err)
		}
		bnet.InitArbitrary(rng)
		res, err := bnet.Run(runtime.RandomSubset(rng), 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Silent {
			t.Fatalf("n=%d: bfs substrate not silent after %d moves", n, res.Moves)
		}
		nets["bfs"] = bnet

		// MST / MDST: the engines' silent target configurations.
		for _, sub := range []struct {
			name  string
			build func() (*trees.Tree, error)
		}{
			{"mst", func() (*trees.Tree, error) { return mst.Kruskal(g, g.MinID()) }},
			{"mdst", func() (*trees.Tree, error) { return mdst.GreedyLowDegreeTree(g, g.MinID()) }},
		} {
			tree, err := sub.build()
			if err != nil {
				t.Fatal(err)
			}
			net, err := runtime.NewNetwork(g, switching.Algorithm{})
			if err != nil {
				t.Fatal(err)
			}
			if err := switching.InitFromTree(net, tree); err != nil {
				t.Fatal(err)
			}
			if !net.Silent() {
				t.Fatalf("n=%d: %s legitimate configuration not silent", n, sub.name)
			}
			nets[sub.name] = net
		}

		for name, net := range nets {
			algo := routing.AlgoSwitching
			bits := net.MaxRegisterBits()
			bound := RegisterBitsBound(algo, g)
			if bits > bound {
				t.Errorf("n=%d %s: %d register bits exceed paper bound %d", n, name, bits, bound)
			}
			if bound > logBound {
				t.Errorf("n=%d %s: paper bound %d exceeds O(log n) pin %d — bound inflated?",
					n, name, bound, logBound)
			}
			t.Logf("n=%d %s: %d bits (bound %d, log-pin %d)", n, name, bits, bound, logBound)
		}
	}
}
