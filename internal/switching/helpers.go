package switching

import (
	"fmt"

	"silentspan/internal/graph"
	"silentspan/internal/pls"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// InitFromTree loads a legal configuration for the given spanning tree
// into the network: exact labels, idle controls — the silent state the
// protocol stabilizes to.
func InitFromTree(net *runtime.Network, t *trees.Tree) error {
	if !t.IsSpanningTreeOf(net.Graph()) {
		return fmt.Errorf("switching: tree does not span the network graph")
	}
	LoadTree(t, net.SetState)
	return nil
}

// LoadTree writes the legal configuration for t — exact labels, idle
// controls — through set, one register per tree node in ascending
// identity order. It is InitFromTree for register files that are not a
// runtime.Network (a message-passing cluster's node actors).
func LoadTree(t *trees.Tree, set func(graph.NodeID, runtime.State)) {
	depths := t.Depths()
	sizes := t.SubtreeSizes()
	for _, v := range t.Nodes() {
		set(v, State{
			Root:   t.Root(),
			Parent: t.Parent(v),
			HasD:   true, D: depths[v],
			HasS: true, S: sizes[v],
			Sw: SwIdle, SwTarget: trees.None, Pr: PrOff, Sub: SubOff,
		})
	}
}

// InjectSwitch marks node v as the initiator of a local switch adopting
// neighbor target as its new parent. The network then executes the
// three-phase protocol of Section IV on its own.
func InjectSwitch(net *runtime.Network, v, target graph.NodeID, get Getter) error {
	s, ok := get(net.State(v))
	if !ok {
		return fmt.Errorf("switching: node %d has no switching register", v)
	}
	if !net.Graph().HasEdge(v, target) {
		return fmt.Errorf("switching: %d-%d is not an edge", v, target)
	}
	if s.Parent == target {
		return fmt.Errorf("switching: %d is already the parent of %d", target, v)
	}
	if s.Parent == trees.None {
		return fmt.Errorf("switching: node %d is the root; roots do not switch", v)
	}
	s.Sw, s.SwTarget = SwReq, target
	net.SetState(v, s)
	return nil
}

// ExtractTree reads the parent pointers (via get) and validates they form
// a spanning tree of the network's graph.
func ExtractTree(net *runtime.Network, get Getter) (*trees.Tree, error) {
	parent := make(map[graph.NodeID]graph.NodeID, net.Graph().N())
	for _, v := range net.Graph().Nodes() {
		s, ok := get(net.State(v))
		if !ok {
			return nil, fmt.Errorf("switching: node %d has no switching register", v)
		}
		parent[v] = s.Parent
	}
	t, err := trees.FromParentMap(parent)
	if err != nil {
		return nil, fmt.Errorf("switching: %w", err)
	}
	if !t.IsSpanningTreeOf(net.Graph()) {
		return nil, fmt.Errorf("switching: parent pointers leave the graph")
	}
	return t, nil
}

// LoopFreeMonitor returns a runtime monitor asserting the paper's
// loop-freedom claim: the parent pointers form a spanning tree after
// every single step of the protocol.
func LoopFreeMonitor(get Getter) runtime.Monitor {
	return runtime.MonitorFunc(func(net *runtime.Network) error {
		if _, err := ExtractTree(net, get); err != nil {
			return fmt.Errorf("loop-freedom violated: %w", err)
		}
		return nil
	})
}

// MalleabilityMonitor returns a runtime monitor asserting Lemma 4.1's
// malleability claim: the redundant-label verifier accepts every
// intermediate configuration of a legal switch (no node ever raises an
// alarm while the protocol runs).
func MalleabilityMonitor(get Getter) runtime.Monitor {
	return runtime.MonitorFunc(func(net *runtime.Network) error {
		a, err := ToAssignment(net, get)
		if err != nil {
			return err
		}
		if err := a.Verify(net.Graph()); err != nil {
			return fmt.Errorf("malleability violated: %w", err)
		}
		return nil
	})
}

// ToAssignment converts the network's switching registers into a
// pls.Assignment for the Lemma 4.1 verifier.
func ToAssignment(net *runtime.Network, get Getter) (pls.Assignment, error) {
	a := pls.Assignment{
		Parent: make(map[graph.NodeID]graph.NodeID, net.Graph().N()),
		Labels: make(map[graph.NodeID]pls.Label, net.Graph().N()),
	}
	for _, v := range net.Graph().Nodes() {
		s, ok := get(net.State(v))
		if !ok {
			return pls.Assignment{}, fmt.Errorf("switching: node %d has no switching register", v)
		}
		a.Parent[v] = s.Parent
		a.Labels[v] = pls.Label{
			Root: s.Root,
			HasD: s.HasD, D: s.D,
			HasS: s.HasS, S: s.S,
		}
	}
	return a, nil
}
