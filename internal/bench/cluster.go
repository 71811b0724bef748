package bench

import (
	"fmt"
	"math/rand"
	"time"

	"silentspan/internal/cluster"
	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/spanning"
	"silentspan/internal/trees"
)

// E13Cluster is the message-passing cluster scale table: the full
// serving stack — lockstep nodes exchanging heartbeat
// frames over the in-process transport, convergence to the silent
// tree, then a routed packet batch carried hop-by-hop as data frames
// through the same transport. It reports convergence latency in ticks
// (the round yardstick of the Devismes–Johnen BFS analysis: from the
// benign self-root start the substrate needs O(diameter) heartbeat
// exchanges) and heartbeat throughput, so the table doubles as the
// regression guard for the wire codec's per-frame cost.
func E13Cluster(ns []int, packets int, seed int64) (*Table, error) {
	tb := &Table{
		Title:  "E13: message-passing cluster — convergence latency + heartbeat throughput",
		Header: []string{"n", "m", "ticks", "stab-ms", "frames", "MB", "kframe/s", "pkts", "delivered", "kpkt/s", "mean-hops"},
		Notes: []string{
			"substrate: spanning.Algorithm from the post-reset configuration, channel transport, lockstep ticks",
			"packets ride the transport as checksummed data frames, one hop per tick, greedy over the live labeling",
		},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomConnected(n, 8/float64(n), rng)
		cl, err := cluster.New(g, spanning.Algorithm{}, cluster.NewChanTransport(), cluster.Config{})
		if err != nil {
			return nil, fmt.Errorf("E13 n=%d: %w", n, err)
		}
		gw := cluster.NewGateway(cl)
		for _, v := range g.Nodes() {
			cl.SetState(v, spanning.State{Root: v, Parent: trees.None, Dist: 0})
		}

		start := time.Now()
		ticks, quiet := cl.RunUntilQuiet(32*n, 4)
		stab := time.Since(start)
		if !quiet {
			cl.Stop()
			return nil, fmt.Errorf("E13 n=%d: no quiet within %d ticks", n, 32*n)
		}
		st := cl.Stats()
		if !gw.Labeling().Complete() {
			cl.Stop()
			return nil, fmt.Errorf("E13 n=%d: labeling incomplete after quiet", n)
		}

		pairs := routing.UniformPairs(g.Nodes(), packets, rng)
		start = time.Now()
		gw.Launch(pairs)
		for i := 0; i < 8*n && gw.Outstanding() > 0; i++ {
			cl.Tick()
		}
		routeDur := time.Since(start)
		gws := gw.Stats()
		cl.Stop()
		if gws.DeliveryRate() != 1 {
			return nil, fmt.Errorf("E13 n=%d: delivery %.4f on a clean transport", n, gws.DeliveryRate())
		}

		tb.Rows = append(tb.Rows, []string{
			itoa(n), itoa(g.M()), itoa(ticks),
			itoa(int(stab.Milliseconds())),
			itoa(st.FramesSent),
			fmt.Sprintf("%.1f", float64(st.BytesSent)/(1<<20)),
			fmt.Sprintf("%.0f", float64(st.FramesSent)/stab.Seconds()/1000),
			itoa(gws.Launched),
			fmt.Sprintf("%.2f%%", 100*gws.DeliveryRate()),
			fmt.Sprintf("%.0f", float64(gws.Launched)/routeDur.Seconds()/1000),
			fmt.Sprintf("%.1f", gws.MeanHops()),
		})
	}
	return tb, nil
}
