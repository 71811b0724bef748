package bench

import (
	"fmt"
	"math/rand"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
)

// E11Scale is the dense-engine scale table: the full serving stack —
// BFS substrate stabilization, coordinate labeling, and a routed
// traffic batch — at sizes the map-backed engine could not reach
// (100k–1M nodes). It reports wall-clock time per stage, so the table
// doubles as the regression guard for the engine's O(deg)-per-move
// claim: stabilization time must scale near-linearly in m.
func E11Scale(ns []int, packets int, seed int64) (*Table, error) {
	tb := &Table{
		Title:  "E11: serving-scale stabilization + routing (dense register-file engine)",
		Header: []string{"n", "m", "stab-rounds", "stab-moves", "stab-ms", "label-ms", "route-ms", "delivered", "kpkt/s"},
		Notes: []string{
			"substrate: spanning.Algorithm from the post-reset configuration, synchronous daemon",
			"routing: uniform pairs over the labeled tree with greedy shortcuts",
		},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomConnected(n, 8/float64(n), rng)
		start := time.Now()
		net, tree, err := servingSubstrate(g)
		if err != nil {
			return nil, fmt.Errorf("E11 n=%d: %w", n, err)
		}
		stabMS := time.Since(start)

		start = time.Now()
		lab := routing.Label(tree)
		labelMS := time.Since(start)

		r := routing.NewRouter(g, lab, routing.Options{})
		pairs := routing.UniformPairs(g.Nodes(), packets, rng)
		start = time.Now()
		stats, err := routing.Drive(r, pairs, routing.DriveOptions{MaxExactSources: -1})
		if err != nil {
			return nil, fmt.Errorf("E11 n=%d: %w", n, err)
		}
		routeMS := time.Since(start)
		kpps := float64(stats.Sent) / routeMS.Seconds() / 1000

		tb.Rows = append(tb.Rows, []string{
			itoa(n), itoa(g.M()), itoa(net.Rounds()), itoa(net.Moves()),
			itoa(int(stabMS.Milliseconds())),
			itoa(int(labelMS.Milliseconds())),
			itoa(int(routeMS.Milliseconds())),
			fmt.Sprintf("%.2f%%", 100*stats.DeliveryRate()),
			fmt.Sprintf("%.0f", kpps),
		})
	}
	return tb, nil
}
