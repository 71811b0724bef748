package bench

import (
	"fmt"
	"math/rand"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
)

// E12Churn is the live-topology churn throughput table: on a serving-
// scale network (100k–1M nodes) with the spanning substrate stabilized
// and a router live on the incrementally maintained labeling, apply a
// sustained mutation stream — link flaps, re-costs, node joins and
// leaves — in batches, interleaving bounded repair windows and routed
// traffic, and report the sustained end-to-end mutation rate (wall
// clock includes mutation application, enabled-set maintenance, the
// partial relabels, repair, and routing), the per-mutation cost split,
// and the serving quality during and after the churn.
func E12Churn(ns []int, mutations, batch, packets int, seed int64) (*Table, error) {
	tb := &Table{
		Title:  "E12: live-topology churn under stabilization (mutations/sec with routing live)",
		Header: []string{"n", "m", "mutations", "joins", "leaves", "flaps", "mut/s", "repair-ms", "route-ms", "during-del", "final-del", "final-silent"},
		Notes: []string{
			"substrate: spanning.Algorithm, synchronous repair windows between mutation batches",
			"labeling: routing.LiveLabeler partial relabels (subtree-scoped), router stays live throughout",
			"mut/s is end-to-end: mutation application + incremental bookkeeping + repair + routing wall clock",
		},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomConnected(n, 8/float64(n), rng)
		net, _, err := servingSubstrate(g)
		if err != nil {
			return nil, fmt.Errorf("E12 n=%d: %w", n, err)
		}
		live := routing.NewLive(net)

		var (
			joins, leaves, flaps  int
			repairDur, routeDur   time.Duration
			duringSent, duringDel int
			nextID                = graph.NodeID(10_000_000)
			nextW                 = graph.Weight(1 << 40)
			downed                []graph.Edge
			nodes                 = g.Nodes()
			applied               int
		)
		// pool is a lazily validated edge sample source: O(1) draws
		// instead of an O(m) Edges() snapshot per mutation. Stale
		// entries (edges or endpoints churned away) are discarded on
		// draw; added edges are appended.
		pool := g.Edges()
		drawEdge := func() (graph.Edge, bool) {
			for tries := 0; tries < 32 && len(pool) > 0; tries++ {
				k := rng.Intn(len(pool))
				e := pool[k]
				if g.HasEdge(e.U, e.V) {
					return e, true
				}
				pool[k] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
			}
			return graph.Edge{}, false
		}
		start := time.Now()
		for applied < mutations {
			for b := 0; b < batch && applied < mutations; b++ {
				switch op := rng.Intn(20); {
				case op < 8: // link down
					e, ok := drawEdge()
					if !ok {
						b--
						continue
					}
					if err := net.RemoveEdge(e.U, e.V); err != nil {
						return nil, err
					}
					downed = append(downed, e)
					flaps++
				case op < 16: // link up (heal latest downed, else fresh)
					if len(downed) > 0 {
						e := downed[len(downed)-1]
						downed = downed[:len(downed)-1]
						if g.HasNode(e.U) && g.HasNode(e.V) && !g.HasEdge(e.U, e.V) {
							if err := net.AddEdge(e.U, e.V, e.W); err != nil {
								return nil, err
							}
							pool = append(pool, e)
							flaps++
							break
						}
					}
					u := nodes[rng.Intn(len(nodes))]
					v := nodes[rng.Intn(len(nodes))]
					if u == v || !g.HasNode(u) || !g.HasNode(v) || g.HasEdge(u, v) {
						b--
						continue
					}
					if err := net.AddEdge(u, v, nextW); err != nil {
						return nil, err
					}
					pool = append(pool, graph.Edge{U: u, V: v, W: nextW})
					nextW++
					flaps++
				case op < 18: // leave (slot vacated for the next join)
					v := nodes[rng.Intn(len(nodes))]
					if !g.HasNode(v) {
						b--
						continue
					}
					if err := net.RemoveNode(v); err != nil {
						return nil, err
					}
					leaves++
				default: // join on a recycled slot, wired to one anchor
					anchor := nodes[rng.Intn(len(nodes))]
					if !g.HasNode(anchor) { // removed earlier in this batch
						b--
						continue
					}
					if err := net.AddNode(nextID, nil); err != nil {
						return nil, err
					}
					if err := net.AddEdge(nextID, anchor, nextW); err != nil {
						return nil, err
					}
					pool = append(pool, graph.Edge{U: nextID, V: anchor, W: nextW})
					nextID++
					nextW++
					joins++
				}
				applied++
			}
			if applied%(16*batch) < batch {
				nodes = g.Nodes() // periodic endpoint refresh after node churn
			}
			rs := time.Now()
			if _, err := net.Run(runtime.Synchronous(), net.Moves()+5*batch); err != nil {
				return nil, err
			}
			repairDur += time.Since(rs)
			rs = time.Now()
			live.Sync()
			batchStats, err := routing.Drive(live.Router(), routing.UniformPairs(nodes, packets/10, rng), routing.DriveOptions{MaxExactSources: -1})
			if err != nil {
				return nil, err
			}
			routeDur += time.Since(rs)
			duringSent += batchStats.Sent
			duringDel += batchStats.Delivered
		}
		// Final convergence + post-churn service quality.
		res, err := net.Run(runtime.Synchronous(), 200_000_000)
		if err != nil || !res.Silent {
			return nil, fmt.Errorf("E12 n=%d: no final silence (%v)", n, err)
		}
		elapsed := time.Since(start)
		live.Sync()
		final, err := routing.Drive(live.Router(), routing.UniformPairs(g.Nodes(), packets, rng), routing.DriveOptions{MaxExactSources: -1})
		if err != nil {
			return nil, err
		}
		mutPerSec := float64(applied) / elapsed.Seconds()
		tb.Rows = append(tb.Rows, []string{
			itoa(n), itoa(g.M()), itoa(applied), itoa(joins), itoa(leaves), itoa(flaps),
			fmt.Sprintf("%.0f", mutPerSec),
			itoa(int(repairDur.Milliseconds())),
			itoa(int(routeDur.Milliseconds())),
			fmt.Sprintf("%.2f%%", pct(duringDel, duringSent)),
			fmt.Sprintf("%.2f%%", 100*final.DeliveryRate()),
			btoa(res.Silent),
		})
	}
	return tb, nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
