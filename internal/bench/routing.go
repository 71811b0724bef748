package bench

import (
	"fmt"
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// servingSubstrate brings the spanning substrate to silence from the
// benign post-reset configuration under the synchronous daemon — the
// serving setup (adversarial starts are exercised by E3/E7) — and
// returns the silent network plus the extracted tree.
func servingSubstrate(g *graph.Graph) (*runtime.Network, *trees.Tree, error) {
	return routing.BringUp(g, routing.AlgoSpanning, runtime.Synchronous(), 200_000_000, nil, nil)
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
