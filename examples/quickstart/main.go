// Quickstart: build a silent self-stabilizing spanning tree with the
// malleable labels of Lemma 4.1, watch it stabilize from an adversarial
// configuration, corrupt it, and watch it recover.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
)

func main() {
	// A 5x5 grid network; node identities 1..25, the leader will be 1.
	g := graph.Grid(5, 5)
	net, err := runtime.NewNetwork(g, switching.Algorithm{})
	if err != nil {
		log.Fatal(err)
	}

	// Adversarial start: every register holds arbitrary garbage.
	rng := rand.New(rand.NewSource(42))
	net.InitArbitrary(rng)
	fmt.Printf("start: %d of %d nodes enabled (illegal configuration)\n",
		len(net.Enabled()), g.N())

	// Run under the unfair scheduler the paper assumes.
	res, err := net.Run(runtime.AdversarialUnfair(), 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := switching.ExtractTree(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stabilized: silent=%v rounds=%d moves=%d root=%d registers=%d bits\n",
		res.Silent, res.Rounds, res.Moves, tree.Root(), res.MaxRegisterBits)

	// The silent configuration is locally certified: run the Lemma 4.1
	// verifier at every node.
	a, err := switching.ToAssignment(net)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Verify(g); err != nil {
		log.Fatalf("verifier rejected: %v", err)
	}
	fmt.Println("proof-labeling verifier: every node accepts")

	// Transient fault: corrupt three registers; the system detects and
	// repairs on its own — that is self-stabilization.
	victims := runtime.Corrupt(net, 3, rng)
	fmt.Printf("\ncorrupted registers at nodes %v\n", victims)
	moves0 := net.Moves()
	res, err = net.Run(runtime.AdversarialUnfair(), moves0+1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: silent=%v extra-moves=%d\n", res.Silent, res.Moves-moves0)
	if err := runtime.CheckSilentStable(net); err != nil {
		log.Fatal(err)
	}
	fmt.Println("silence re-established; registers fixed until the next fault")
}
