package routing

import (
	"math/rand"
	"testing"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
)

// The headline serving demo: ≥100k packets over a stabilized BFS tree
// on a ≥10k-node random graph, 100% delivery, mean stretch measured
// against exact shortest paths. The substrate stabilizes from the
// benign post-reset configuration (InitSelfRoot) — an adversarial
// start needs Θ(n) erosion rounds, which belongs to the small-n
// experiments, not the scale demo.
func TestScaleDemo100kPacketsOver10kNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("scale demo skipped in -short mode")
	}
	const (
		n       = 10_000
		p       = 0.002
		packets = 100_000
	)
	rng := rand.New(rand.NewSource(42))
	start := time.Now()
	g := graph.RandomConnected(n, p, rng)

	net, err := runtime.NewNetwork(g, spanning.Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	spanning.InitSelfRoot(net)
	res, err := net.Run(runtime.Synchronous(), 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Silent {
		t.Fatalf("substrate not silent after %d moves", res.Moves)
	}
	tree, err := spanning.ExtractTree(net)
	if err != nil {
		t.Fatal(err)
	}

	lab := Label(tree)
	if err := lab.Verify(tree); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g, lab, Options{})
	stats, err := Drive(r, UniformPairs(g.Nodes(), packets, rng), DriveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if stats.Sent < packets {
		t.Fatalf("sent %d < %d", stats.Sent, packets)
	}
	if stats.Delivered != stats.Sent {
		t.Fatalf("delivered %d of %d — not 100%%", stats.Delivered, stats.Sent)
	}
	if stats.StretchSamples == 0 {
		t.Fatal("no stretch samples measured")
	}
	if stats.MeanStretch < 1 || stats.MeanStretch >= 2 {
		t.Fatalf("mean stretch %.3f outside [1, 2)", stats.MeanStretch)
	}
	t.Logf("n=%d m=%d: stabilized in %d rounds / %d moves; registers %d bits; labels ≤ %d bits",
		g.N(), g.M(), res.Rounds, res.Moves, res.MaxRegisterBits, lab.MaxLabelBits())
	t.Logf("traffic: %v (wall %v)", stats, time.Since(start))
}
