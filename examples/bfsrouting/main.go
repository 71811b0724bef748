// BFS routing tree with always-on self-repair (the paper's Section III
// example): the fully integrated rule system — substrate construction,
// malleable labels, PLS-guided improvement rule, loop-free switches —
// runs as one transition function. Starting from a deliberately bad
// (DFS-shaped) routing tree, the system repairs itself into a BFS tree
// while *remaining a spanning tree after every single step*, so routing
// never breaks during repair.
//
//	go run ./examples/bfsrouting
package main

import (
	"fmt"
	"log"

	"silentspan/internal/bfs"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

func main() {
	// A lollipop topology: dense cluster plus a long access chain —
	// DFS trees of it are terrible for routing latency.
	g := graph.Lollipop(8, 10)
	root := g.MinID()
	bad, err := trees.DFSTree(g, root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: n=%d m=%d; initial DFS routing tree height %d\n",
		g.N(), g.M(), heightOf(bad))

	net, err := runtime.NewNetwork(g, bfs.Algorithm{})
	if err != nil {
		log.Fatal(err)
	}
	if err := switching.InitFromTree(net, bad); err != nil {
		log.Fatal(err)
	}

	// The monitor proves the headline property: a spanning tree after
	// every single move — the repair is loop-free, routing stays up.
	stepsChecked := 0
	net.AddMonitor(runtime.MonitorFunc(func(n *runtime.Network) error {
		stepsChecked++
		_, err := switching.ExtractTree(n)
		return err
	}))

	res, err := net.Run(runtime.Central(), 2_000_000)
	if err != nil {
		log.Fatalf("loop-freedom violated: %v", err)
	}
	tree, err := switching.ExtractTree(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repaired in %d rounds (%d moves): height %d, exact BFS = %v\n",
		res.Rounds, res.Moves, heightOf(tree), trees.IsBFSTree(tree, g))
	fmt.Printf("spanning tree verified after every one of %d steps — routing never broke\n",
		stepsChecked)
	fmt.Printf("silent: %v, registers: %d bits\n", res.Silent, res.MaxRegisterBits)
}

func heightOf(t *trees.Tree) int {
	h := 0
	for _, d := range t.Depths() {
		if d > h {
			h = d
		}
	}
	return h
}
