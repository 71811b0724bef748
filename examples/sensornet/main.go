// Sensor-network MDST (the paper's motivating application, Section I-D:
// MAC protocol design for 802.15.4 sensor networks, where the data-
// gathering tree's maximum degree bounds per-node contention): build a
// spanning tree of a random geometric radio network whose degree is
// within +1 of the optimum, silently, with O(log n)-bit registers.
//
// The last act exercises the live-topology mutators: a sensor's battery
// dies mid-operation (runtime.Network.RemoveNode), the gathering tree
// re-stabilizes around the hole, and the degree guarantee is re-checked
// on the shrunken radio network.
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"log"
	"math/rand"

	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

func main() {
	// 24 sensors scattered in the unit square; radio range 0.35.
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomGeometric(24, 0.35, rng)
	fmt.Printf("radio network: %d sensors, %d links, max radio degree %d\n",
		g.N(), g.M(), g.MaxDegree())

	// A naive BFS gathering tree concentrates load near the sink.
	naive, err := trees.BFSTree(g, g.MinID())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive BFS gathering tree: degree %d\n", naive.MaxDegree())

	// The PLS-guided MDST engine stabilizes on an FR-tree: degree within
	// +1 of the best any spanning tree could achieve.
	final, trace, err := core.RunDistributed(g, mdst.Task{}, core.EngineOptions{
		Rng: rng,
	})
	if err != nil {
		log.Fatal(err)
	}
	fr, err := mdst.IsFRTree(g, final)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MDST engine: degree %d, FR-certified=%v, %d rounds, %d improvements\n",
		final.MaxDegree(), fr, trace.Rounds, trace.Improvements)

	// The FR certificate is O(log n) bits per sensor; the previous
	// (OPT+1) self-stabilizing algorithm [16] needs the entire tree in
	// every register.
	m, err := mdst.Mark(g, final)
	if err != nil {
		log.Fatal(err)
	}
	cert, err := mdst.FromMarking(g, final, m)
	if err != nil {
		log.Fatal(err)
	}
	if err := cert.Verify(g); err != nil {
		log.Fatalf("certificate rejected: %v", err)
	}
	base, err := mdst.BigMemoryMDST(g, naive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certificate: %d bits/sensor (vs %d bits/sensor for the Ω(n log n) baseline — %.0fx smaller)\n",
		cert.MaxLabelBits(g.N()), base.RegisterBits,
		float64(base.RegisterBits)/float64(cert.MaxLabelBits(g.N())))

	// A sensor dies mid-operation: load the tree into a live switching
	// network, remove the node through the topology mutators, and let
	// the protocol re-stabilize around the hole.
	net, err := runtime.NewNetwork(g, switching.Algorithm{})
	if err != nil {
		log.Fatal(err)
	}
	if err := switching.InitFromTree(net, final); err != nil {
		log.Fatal(err)
	}
	victim, ok := expendableSensor(g, final)
	if !ok {
		log.Fatal("no sensor can die without splitting the radio network")
	}
	if err := net.RemoveNode(victim); err != nil {
		log.Fatal(err)
	}
	res, err := net.Run(runtime.Synchronous(), 5_000_000)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Silent {
		log.Fatalf("no re-stabilization after sensor %d died", victim)
	}
	repaired, err := switching.ExtractTree(net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor %d died: re-stabilized over %d survivors in %d rounds, gathering degree %d\n",
		victim, g.N(), res.Rounds, repaired.MaxDegree())
}

// expendableSensor picks a tree leaf whose removal keeps the radio
// network connected — a battery death the network can survive.
func expendableSensor(g *graph.Graph, t *trees.Tree) (graph.NodeID, bool) {
	ix := trees.NewIndex(t)
	for _, v := range t.Nodes() {
		if len(ix.Children(v)) > 0 || v == t.Root() {
			continue
		}
		sim := g.Clone()
		if err := sim.RemoveNode(v); err != nil {
			continue
		}
		if sim.Connected() {
			return v, true
		}
	}
	return 0, false
}
