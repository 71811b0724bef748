package bench

import (
	"fmt"
	"math/rand"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// servingSubstrate brings the spanning substrate to silence from the
// benign post-reset configuration under the synchronous daemon — the
// large-scale serving setup (adversarial starts are exercised by E3/E7
// at small n) — and returns the silent network plus the extracted tree.
func servingSubstrate(g *graph.Graph) (*runtime.Network, *trees.Tree, error) {
	return routing.BringUp(g, routing.AlgoSpanning, runtime.Synchronous(), 200_000_000, nil, nil)
}

// E9Routing measures the serving layer end to end: stabilize the BFS
// substrate on random graphs of increasing size, label the tree with
// routing coordinates, and drive a uniform workload, reporting
// delivery, hop counts, stretch against exact shortest paths, label
// size, and forwarding throughput.
func E9Routing(ns []int, packets int, seed int64) (*Table, error) {
	tb := &Table{
		Title:  "E9: tree-coordinate routing over the stabilized substrate",
		Header: []string{"n", "m", "stab-rounds", "packets", "delivered", "mean-hops", "mean-stretch", "label-bits", "kpkt/s"},
		Notes: []string{
			"uniform pairs; stretch vs exact shortest paths on sampled sources",
			"substrate: spanning.Algorithm from the post-reset configuration, synchronous daemon",
		},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		p := 8 / float64(n) // keep average degree ~8 as n grows
		g := graph.RandomConnected(n, p, rng)
		net, tree, err := servingSubstrate(g)
		if err != nil {
			return nil, fmt.Errorf("E9 n=%d: %w", n, err)
		}
		lab := routing.Label(tree)
		r := routing.NewRouter(g, lab, routing.Options{})
		pairs := routing.UniformPairs(g.Nodes(), packets, rng)
		// Throughput is timed over a stretch-free pass: the per-source
		// BFS backing the stretch measurement would otherwise dominate
		// the clock and corrupt the forwarding-rate trend.
		start := time.Now()
		if _, err := routing.Drive(r, pairs, routing.DriveOptions{MaxExactSources: -1}); err != nil {
			return nil, fmt.Errorf("E9 n=%d: %w", n, err)
		}
		elapsed := time.Since(start)
		stats, err := routing.Drive(r, pairs, routing.DriveOptions{})
		if err != nil {
			return nil, fmt.Errorf("E9 n=%d: %w", n, err)
		}
		kpps := float64(stats.Sent) / elapsed.Seconds() / 1000
		tb.Rows = append(tb.Rows, []string{
			itoa(n), itoa(g.M()), itoa(net.Rounds()), itoa(stats.Sent),
			fmt.Sprintf("%.2f%%", 100*stats.DeliveryRate()),
			fmt.Sprintf("%.2f", stats.MeanHops),
			fmt.Sprintf("%.3f", stats.MeanStretch),
			itoa(lab.MaxLabelBits()),
			fmt.Sprintf("%.0f", kpps),
		})
	}
	return tb, nil
}

// A5Shortcut is the stretch ablation: the same workload routed
// tree-only (packets follow the tree path exactly) versus with greedy
// shortcutting over non-tree edges — isolating what the non-tree edges
// buy on top of the stabilized tree.
func A5Shortcut(ns []int, packets int, seed int64) (*Table, error) {
	tb := &Table{
		Title:  "A5: greedy shortcutting ablation (tree-only vs shortcut routing)",
		Header: []string{"n", "m", "tree-hops", "cut-hops", "tree-stretch", "cut-stretch", "hops-saved"},
		Notes:  []string{"identical uniform workload per row; both modes deliver 100%"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomConnected(n, 12/float64(n), rng)
		_, tree, err := servingSubstrate(g)
		if err != nil {
			return nil, fmt.Errorf("A5 n=%d: %w", n, err)
		}
		lab := routing.Label(tree)
		pairs := routing.UniformPairs(g.Nodes(), packets, rng)
		treeStats, err := routing.Drive(routing.NewRouter(g, lab, routing.Options{TreeOnly: true}), pairs, routing.DriveOptions{})
		if err != nil {
			return nil, fmt.Errorf("A5 n=%d tree-only: %w", n, err)
		}
		cutStats, err := routing.Drive(routing.NewRouter(g, lab, routing.Options{}), pairs, routing.DriveOptions{})
		if err != nil {
			return nil, fmt.Errorf("A5 n=%d shortcut: %w", n, err)
		}
		if treeStats.Delivered != treeStats.Sent || cutStats.Delivered != cutStats.Sent {
			return nil, fmt.Errorf("A5 n=%d: delivery not 100%% (tree %d/%d, cut %d/%d)",
				n, treeStats.Delivered, treeStats.Sent, cutStats.Delivered, cutStats.Sent)
		}
		saved := 0.0
		if treeStats.HopSum > 0 {
			saved = 100 * float64(treeStats.HopSum-cutStats.HopSum) / float64(treeStats.HopSum)
		}
		tb.Rows = append(tb.Rows, []string{
			itoa(n), itoa(g.M()),
			fmt.Sprintf("%.2f", treeStats.MeanHops),
			fmt.Sprintf("%.2f", cutStats.MeanHops),
			fmt.Sprintf("%.3f", treeStats.MeanStretch),
			fmt.Sprintf("%.3f", cutStats.MeanStretch),
			fmt.Sprintf("%.1f%%", saved),
		})
	}
	return tb, nil
}

// E10Interplay runs the fault-interplay experiment per substrate: k
// registers corrupted under live traffic, routing continuing over the
// decaying labeling while the tree repairs itself.
func E10Interplay(n int, faults int, seed int64) (*Table, error) {
	tb := &Table{
		Title:  fmt.Sprintf("E10: fault interplay under live traffic (n=%d, %d corrupted registers)", n, faults),
		Header: []string{"substrate", "pre-del", "inflight-during", "inflight-after", "looped", "dropped", "stalls", "reconv-moves", "post-del", "post-stretch"},
		Notes:  []string{"in-flight packets keep routing over the decaying live labeling during repair"},
	}
	for i, sub := range []routing.Algo{routing.AlgoBFS, routing.AlgoMST, routing.AlgoMDST} {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnected(n, 0.15, rng)
		rep, err := routing.RunInterplay(g, routing.InterplayConfig{
			Substrate: sub,
			Faults:    faults,
			Seed:      seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", sub, err)
		}
		tb.Rows = append(tb.Rows, []string{
			sub.String(),
			fmt.Sprintf("%.1f%%", 100*rep.Pre.DeliveryRate()),
			itoa(rep.InFlight.DeliveredDuring),
			itoa(rep.InFlight.DeliveredAfter),
			itoa(rep.InFlight.Looped),
			itoa(rep.InFlight.Dropped),
			itoa(rep.InFlight.StallWindows),
			itoa(rep.ReconvergeMoves),
			fmt.Sprintf("%.1f%%", 100*rep.Post.DeliveryRate()),
			fmt.Sprintf("%.3f", rep.Post.MeanStretch),
		})
	}
	return tb, nil
}
