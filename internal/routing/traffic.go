package routing

import (
	"fmt"
	"math/rand"
	"slices"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
)

// Pair is one packet's endpoints.
type Pair struct {
	Src, Dst graph.NodeID
}

// UniformPairs draws count source/destination pairs uniformly at random
// (src != dst) — the baseline any-to-any workload. Fewer than two
// distinct endpoints admit no pair: the result is empty (churn
// schedules can shrink a cohort's endpoint pool arbitrarily).
func UniformPairs(nodes []graph.NodeID, count int, rng *rand.Rand) []Pair {
	if len(nodes) < 2 {
		return nil
	}
	out := make([]Pair, 0, count)
	for len(out) < count {
		s := nodes[rng.Intn(len(nodes))]
		d := nodes[rng.Intn(len(nodes))]
		if s != d {
			out = append(out, Pair{Src: s, Dst: d})
		}
	}
	return out
}

// HotspotPairs draws a root-heavy workload: a fraction toHub of packets
// go to the hub (sensor readings converging on the sink), the rest come
// from the hub (commands fanning out), modelling the sensor-network
// traffic the paper's MDST construction is motivated by. A pool holding
// no node other than the hub admits no pair: the result is empty.
func HotspotPairs(nodes []graph.NodeID, hub graph.NodeID, count int, toHub float64, rng *rand.Rand) []Pair {
	if !slices.ContainsFunc(nodes, func(v graph.NodeID) bool { return v != hub }) {
		return nil
	}
	out := make([]Pair, 0, count)
	for len(out) < count {
		v := nodes[rng.Intn(len(nodes))]
		if v == hub {
			continue
		}
		if rng.Float64() < toHub {
			out = append(out, Pair{Src: v, Dst: hub})
		} else {
			out = append(out, Pair{Src: hub, Dst: v})
		}
	}
	return out
}

// AllPairsSample draws count distinct ordered pairs without replacement
// (all n(n-1) ordered pairs when count exceeds their number) — the
// exhaustive coverage workload for small networks.
func AllPairsSample(nodes []graph.NodeID, count int, rng *rand.Rand) []Pair {
	n := len(nodes)
	total := n * (n - 1)
	if count >= total {
		out := make([]Pair, 0, total)
		for _, s := range nodes {
			for _, d := range nodes {
				if s != d {
					out = append(out, Pair{Src: s, Dst: d})
				}
			}
		}
		return out
	}
	seen := make(map[Pair]bool, count)
	out := make([]Pair, 0, count)
	for len(out) < count {
		p := Pair{Src: nodes[rng.Intn(n)], Dst: nodes[rng.Intn(n)]}
		if p.Src == p.Dst || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// Stats aggregates the outcome of driving a batch of packets.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int
	// Looped counts packets that revisited a node (in-flight packets
	// across labeling refreshes; always 0 for single-labeling routing).
	Looped       int
	DropByReason map[DropReason]int

	// HopSum / MeanHops are over delivered packets.
	HopSum   int
	MeanHops float64

	// Stretch is delivered hops divided by the exact shortest-path
	// distance, measured on the packets whose source was among the
	// first MaxExactSources distinct sources (exact distances need one
	// BFS per source; the cap keeps all-uniform workloads affordable).
	StretchSamples int
	MeanStretch    float64
	MaxStretch     float64
	// ExactSources is how many sources got a BFS; when it hit the cap,
	// stretch is a sample, not a census.
	ExactSources int
}

// DeliveryRate returns the delivered fraction in [0,1].
func (s Stats) DeliveryRate() float64 {
	if s.Sent == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Sent)
}

// String renders the one-line summary the CLIs print.
func (s Stats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d (%.2f%%) dropped=%d looped=%d mean-hops=%.2f mean-stretch=%.3f (over %d sampled)",
		s.Sent, s.Delivered, 100*s.DeliveryRate(), s.Dropped, s.Looped, s.MeanHops, s.MeanStretch, s.StretchSamples)
}

// DriveOptions configures a traffic run.
type DriveOptions struct {
	// MaxExactSources caps the number of per-source BFS computations
	// backing the stretch measurement; 0 means 256. Negative disables
	// stretch measurement entirely.
	MaxExactSources int
}

// driveShard is the run of packets a Drive worker claims at a time, and
// the longest batch Drive routes on the caller's goroutine. One packet
// costs a few microseconds over a large graph, so a run is about a
// millisecond of work; the churn campaigns' post-churn batches (a few
// packets per node of a small graph) never start a goroutine.
const driveShard = 256

// outcome is one packet's result in a Drive batch: the hops it took and
// why it was dropped (DropNone when delivered).
type outcome struct {
	hops   int
	reason DropReason
}

// Drive routes every pair and aggregates statistics. Stretch is
// measured against exact shortest paths computed per distinct source up
// to the configured cap.
//
// The packets are independent, so the batch is sharded over every core
// (runtime.ParallelFor); each packet's outcome lands in its own slot of
// one slice. The statistics are then folded sequentially in pair order,
// stretch BFS included, so they do not depend on the number of workers
// — MeanStretch is summed in the same order, bit for bit.
func Drive(r *Router, pairs []Pair, opt DriveOptions) (Stats, error) {
	if opt.MaxExactSources == 0 {
		opt.MaxExactSources = 256
	}
	out := make([]outcome, len(pairs))
	aligned := r.alignedNow()
	runtime.ParallelFor(len(pairs), driveShard, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i].hops, out[i].reason = r.walk(pairs[i].Src, pairs[i].Dst, aligned, nil)
		}
	})

	stats := Stats{DropByReason: make(map[DropReason]int)}
	exact := make(map[graph.NodeID]map[graph.NodeID]int)
	g := r.g
	for i, p := range pairs {
		stats.Sent++
		o := out[i]
		if o.reason != DropNone {
			stats.Dropped++
			stats.DropByReason[o.reason]++
			continue
		}
		stats.Delivered++
		stats.HopSum += o.hops
		if opt.MaxExactSources < 0 {
			continue
		}
		dist, ok := exact[p.Src]
		if !ok && len(exact) < opt.MaxExactSources {
			m, err := g.BFSDistances(p.Src)
			if err != nil {
				return stats, fmt.Errorf("routing: exact distances from %d: %w", p.Src, err)
			}
			exact[p.Src] = m
			dist, ok = m, true
		}
		if !ok {
			continue
		}
		sp := dist[p.Dst]
		if sp <= 0 {
			return stats, fmt.Errorf("routing: zero shortest path %d -> %d", p.Src, p.Dst)
		}
		stretch := float64(o.hops) / float64(sp)
		stats.StretchSamples++
		stats.MeanStretch += stretch
		if stretch > stats.MaxStretch {
			stats.MaxStretch = stretch
		}
	}
	if stats.Delivered > 0 {
		stats.MeanHops = float64(stats.HopSum) / float64(stats.Delivered)
	}
	if stats.StretchSamples > 0 {
		stats.MeanStretch /= float64(stats.StretchSamples)
	}
	stats.ExactSources = len(exact)
	return stats, nil
}
