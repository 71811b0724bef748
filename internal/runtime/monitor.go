package runtime

import (
	"fmt"
	"math/rand"

	"silentspan/internal/graph"
)

// Monitor is an invariant checked after every applied step of a run. The
// experiments use monitors to validate the paper's trajectory claims —
// most importantly loop-freedom: during the edge-switching protocol of
// Section IV the parent pointers must form a spanning tree in *every*
// intermediate configuration, and the malleable verifier of Lemma 4.1
// must never raise an alarm.
type Monitor interface {
	// Check inspects the network's current configuration and returns an
	// error describing the violation, if any.
	Check(net *Network) error
}

// MonitorFunc adapts a function to the Monitor interface.
type MonitorFunc func(net *Network) error

// Check implements Monitor.
func (f MonitorFunc) Check(net *Network) error { return f(net) }

// Corrupt injects transient faults: it overwrites the registers of count
// distinct random nodes with arbitrary states drawn from the algorithm.
// It returns the identities of the corrupted nodes. Node identities and
// edge weights are constants and remain intact (Section II-A).
//
// count is clamped to [0, n]. Victim selection is fully determined by
// the rng stream: the draw runs over the sorted node list (never a map
// iteration), and only the count leading swaps of the shuffle are
// performed, so a seeded rng replays the identical fault pattern run
// after run — the property the certification campaigns diff against.
func Corrupt(net *Network, count int, rng *rand.Rand) []graph.NodeID {
	nodes := net.Graph().Nodes()
	if count > len(nodes) {
		count = len(nodes)
	}
	if count < 0 {
		count = 0
	}
	// Partial Fisher–Yates: exactly count draws regardless of n.
	for i := 0; i < count; i++ {
		j := i + rng.Intn(len(nodes)-i)
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	victims := nodes[:count]
	for _, v := range victims {
		net.SetState(v, net.Algorithm().ArbitraryState(rng, net.view(v)))
	}
	return victims
}

// CheckSilentStable verifies the silence property (Section II-A): in a
// silent configuration, re-examining every node must leave all registers
// unchanged. It evaluates δ at every node straight from the register
// file — not from the engine's dirty worklist, transition cache or
// enabled set — so it is an oracle independent of the incremental
// bookkeeping it checks, and it returns an error naming the first node
// (in slot order) that would move. It then requires the enabled set to
// agree that no node is enabled.
func CheckSilentStable(net *Network) error {
	for i, s := range net.states {
		if !net.d.LiveAt(i) {
			continue
		}
		if next := net.alg.Step(net.viewAt(i)); !next.Equal(s) {
			return fmt.Errorf("runtime: configuration not silent: node %d would move %v -> %v", net.d.ID(i), s, next)
		}
	}
	if !net.Silent() {
		return fmt.Errorf("runtime: δ moves no node, but the enabled set holds node %d", net.enabled.MinID())
	}
	return nil
}
