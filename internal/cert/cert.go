// Package cert is the adversarial certification harness: it hunts for
// counterexamples to the paper's headline claims instead of
// spot-checking them — Devismes–Johnen and Altisen–Devismes both exhibit
// published silent-stabilization bounds that fail only under adversarial
// daemons, which no fixed unit test would ever schedule. Five campaigns
// share one scheduler registry (Schedulers), one algorithm registry
// (routing.Algo) and one substrate bring-up (routing.BringUp, with
// referenceTree for MST/MDST):
//
//   - RunExhaustive (modelcheck.go): every connected graph up to n nodes
//     (one per isomorphism class) plus the pathological families, every
//     algorithm, exhaustively or densely sampled initial configurations,
//     every daemon — convergence, closure, the task's spec on the
//     stabilized tree, register widths within the O(log n) bound;
//   - RunChurn (churn.go): seeded join/leave/flap/partition/heal/corrupt
//     schedules on small graphs, each run one ChurnEpisode;
//   - RunCluster (cluster.go): the same claims over the message-passing
//     transform under transport faults, optionally with a churn schedule
//     driven through the cluster's own mutators;
//   - RunChaos (chaos.go): fault bursts on large graphs, each one
//     routing.Live.Burst, distilled into a certificate CI diffs against
//     committed bounds (bounds.go).
//
// The serving episode is written once. A substrate is brought up; a
// routing.Live rig keeps a router current over its live registers; a
// packet cohort flies while faults or churn hit, one repair window and
// one routing window at a time; the network re-stabilizes and
// Live.Settle checks the silent tree, flushes the cohort and serves a
// fresh batch. A chaos burst is one Live.Burst; a churn episode runs a
// Live.Window per op and its own final run, then Live.Settle, and
// checks the spec, the register bound and full delivery itself. The
// campaigns' cohort sizes and window budgets are constants, not config
// fields. Churn ops reach a simulator network or a cluster
// through one applier (ApplyChurnOp over ChurnTarget), and the three
// hunting campaigns keep one Ledger of counterexamples and worst cases.
package cert

import (
	"fmt"
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/mst"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// SchedulerSpec is one entry of the scheduler registry: a named daemon
// factory. Randomized daemons derive their stream from the given seed,
// so a (spec, seed) pair replays the identical schedule.
type SchedulerSpec struct {
	Name string
	New  func(seed int64) runtime.Scheduler
}

// Schedulers returns the full daemon registry the model checker sweeps:
// the deterministic extremes (central, synchronous), weak fairness
// (round-robin), the paper's unfair adversary, the greedy
// round-stretching adversary, and two randomized daemons.
func Schedulers() []SchedulerSpec {
	return []SchedulerSpec{
		{Name: "central", New: func(int64) runtime.Scheduler { return runtime.Central() }},
		{Name: "synchronous", New: func(int64) runtime.Scheduler { return runtime.Synchronous() }},
		{Name: "round-robin", New: func(int64) runtime.Scheduler { return runtime.RoundRobin() }},
		{Name: "adversarial-unfair", New: func(int64) runtime.Scheduler { return runtime.AdversarialUnfair() }},
		{Name: "greedy-stretch", New: func(int64) runtime.Scheduler { return runtime.GreedyRoundStretch() }},
		{Name: "random-central", New: func(seed int64) runtime.Scheduler {
			return runtime.RandomCentral(rand.New(rand.NewSource(seed)))
		}},
		{Name: "random-subset", New: func(seed int64) runtime.Scheduler {
			return runtime.RandomSubset(rand.New(rand.NewSource(seed)))
		}},
	}
}

// SchedulerByName returns the registry entry with the given name.
func SchedulerByName(name string) (SchedulerSpec, error) {
	for _, s := range Schedulers() {
		if s.Name == name {
			return s, nil
		}
	}
	return SchedulerSpec{}, fmt.Errorf("cert: unknown scheduler %q", name)
}

// referenceTree is the campaigns' routing.BringUp tree builder for MST
// and MDST: the sequential reference (Kruskal / greedy low-degree) rooted
// at the minimum identity — the silent configuration the distributed
// engines stabilize to, reachable at campaign scale, which the switching
// protocol then carries through the faults.
func referenceTree(a routing.Algo) func(*graph.Graph) (*trees.Tree, error) {
	return func(g *graph.Graph) (*trees.Tree, error) {
		if a == routing.AlgoMST {
			return mst.Kruskal(g, g.MinID())
		}
		return mdst.GreedyLowDegreeTree(g, g.MinID())
	}
}

// RegisterBitsBound is the paper's register-width bound, instantiated
// per algorithm: identities cost ⌈log₂ maxID⌉ bits, bounded counters
// (distances, subtree sizes) ⌈log₂ n⌉, and control fields O(1). The
// spanning substrate stores two identities and a distance; the
// switching family (switching itself, BFS, and the engine-driven
// MST/MDST, whose registers are switching registers) stores three
// identities, two counters, two presence bits and three 2-bit phases.
// Every certified configuration must fit under this bound — it is the
// "space-optimal" half of the paper's title.
func RegisterBitsBound(a routing.Algo, g *graph.Graph) int {
	nodes := g.Nodes()
	maxID := nodes[len(nodes)-1]
	b := runtime.BitsForValue(int(maxID))
	w := runtime.BitsForValue(g.N())
	if a == routing.AlgoSpanning {
		return 2*b + w
	}
	return 3*b + 2*w + 8
}
