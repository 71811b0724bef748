// Tree-coordinate routing over a self-stabilizing spanning tree: the
// serving-layer demo. A geometric "sensor network" stabilizes a BFS
// tree; every node is labeled with its root-to-node port path
// (yggdrasil-style coordinates); packets are forwarded greedily by
// tree distance with non-tree edges as shortcuts. Mid-demo, registers
// are corrupted under live traffic: routing degrades on the decaying
// labeling, the tree silently repairs itself, and service returns to
// 100% delivery.
//
//	go run ./examples/treeroute
package main

import (
	"fmt"
	"log"
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomGeometric(300, 0.11, rng)
	fmt.Printf("sensor network: n=%d m=%d\n", g.N(), g.M())

	rep, err := routing.RunInterplay(g, routing.InterplayConfig{
		Substrate: routing.AlgoBFS,
		Faults:    6,
		InFlight:  128,
		Seed:      3,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nstabilized BFS substrate: height %d, max degree %d\n", rep.PreHeight, rep.PreMaxDegree)
	fmt.Printf("steady-state traffic: %v\n", rep.Pre)

	fmt.Printf("\n>>> corrupting 6 registers under %d in-flight packets <<<\n", rep.InFlight.Sent)
	fmt.Printf("reconvergence: %d moves over %d windows\n", rep.ReconvergeMoves, rep.Windows)
	fmt.Printf("in-flight fate: %d delivered during repair, %d after, %d looped, %d dropped, %d stalled windows\n",
		rep.InFlight.DeliveredDuring, rep.InFlight.DeliveredAfter,
		rep.InFlight.Looped, rep.InFlight.Dropped, rep.InFlight.StallWindows)

	fmt.Printf("\nrecovered traffic: %v\n", rep.Post)
	if rep.Post.Delivered == rep.Post.Sent {
		fmt.Println("service restored: 100% delivery over the repaired tree")
	}
}
