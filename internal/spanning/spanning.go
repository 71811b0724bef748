// Package spanning implements the silent self-stabilizing spanning-tree
// substrate that the paper's Algorithm 1 and Algorithm 3 begin with
// ("construct a spanning tree of G", Instruction 1, implementable with
// the leader-election algorithm of [25]).
//
// The algorithm is the classic min-identity BFS construction in the state
// model: every node maintains (root, parent, dist); inconsistent nodes
// reset to being their own root; nodes adopt a neighbor offering a
// smaller root identity, or the same root at a smaller distance. A
// distance cap of n-1 erodes regions supporting a fake (corrupted) root
// identity: any chain claiming a nonexistent root keeps growing its
// distance until it exceeds the cap and collapses. The stabilized
// configuration is the BFS spanning tree rooted at the minimum-identity
// node, and no rule is enabled: the algorithm is silent. Registers hold
// two identities and one distance: O(log n) bits.
package spanning

import (
	"fmt"
	"math/rand"
	"slices"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// State is the register of the substrate: the claimed root identity, the
// parent pointer (trees.None when the node claims to be the root), and
// the claimed distance to the root.
type State struct {
	Root   graph.NodeID
	Parent graph.NodeID
	Dist   int
}

// Equal implements runtime.State.
func (s State) Equal(o runtime.State) bool {
	os, ok := o.(State)
	return ok && os == s
}

// EncodedBits implements runtime.State: two identities plus one bounded
// distance, each at its natural width; callers aggregate the max over
// nodes.
func (s State) EncodedBits() int { return Schema.EncodedBits(s.values()) }

// String implements runtime.State.
func (s State) String() string { return Schema.Format(s.values()) }

func (s State) values() runtime.Values {
	return runtime.Values{int64(s.Root), int64(s.Parent), int64(s.Dist)}
}

// Schema is the substrate register's field list, in wire order.
var Schema = &runtime.Schema{
	Name: "spanning", Code: 1,
	Fields: []runtime.Field{
		{Label: "root", Kind: runtime.Int},
		{Label: "par", Kind: runtime.Int},
		{Label: "d", Kind: runtime.Int},
	},
	Pack: func(st runtime.State) (runtime.Values, bool) {
		s, ok := st.(State)
		return s.values(), ok
	},
	Unpack: func(v runtime.Values) runtime.State {
		return State{Root: graph.NodeID(v[0]), Parent: graph.NodeID(v[1]), Dist: int(v[2])}
	},
}

// Algorithm is the substrate's transition function.
type Algorithm struct{}

var _ runtime.Algorithm = Algorithm{}

// Name implements runtime.Algorithm.
func (Algorithm) Name() string { return "spanning-substrate" }

// Register declares the substrate's register: its wire codec.
func (Algorithm) Register() *runtime.Schema { return Schema }

// selfRoot is the reset state of a node.
func selfRoot(id graph.NodeID) State {
	return State{Root: id, Parent: trees.None, Dist: 0}
}

// Step implements runtime.Algorithm. Rules, in priority order:
//
//	R0 (reset): locally inconsistent nodes become their own root.
//	R1 (adopt): join the neighbor offering the lexicographically best
//	    (root, dist+1), when strictly better than the current claim and
//	    within the distance cap.
//	R2 (track): distances follow the parent's (within the cap; beyond it,
//	    reset).
//
// A node no rule enables gets v.Self back, not a fresh box of the same
// register: a disabled δ allocates nothing.
func (Algorithm) Step(v runtime.View) runtime.State {
	s, ok := v.Self.(State)
	if !ok {
		return selfRoot(v.ID)
	}
	cap := v.N - 1

	// R0: structural consistency.
	if !consistent(s, &v) {
		return selfRoot(v.ID)
	}

	// R1: adopt a strictly better offer.
	if u, offer, found := bestOffer(&v, cap); found {
		if better(offer, s) {
			return State{Root: offer.Root, Parent: u, Dist: offer.Dist}
		}
	}

	// R2: follow the parent's distance.
	if s.Parent != trees.None {
		p, ok := v.Peer(s.Parent).(State)
		if !ok {
			return selfRoot(v.ID)
		}
		if p.Root == s.Root && s.Dist != p.Dist+1 {
			if p.Dist+1 <= cap {
				return State{Root: s.Root, Parent: s.Parent, Dist: p.Dist + 1}
			}
			return selfRoot(v.ID)
		}
	}
	return v.Self
}

// consistent reports local structural sanity of s at node v: a self-root
// claims exactly (ID, ⊥, 0); a non-root has a neighboring parent sharing
// its root claim with a root identity smaller than the node's own ID
// (the root is the global minimum, so every non-root's claim is below its
// own identity), a distance within the cap, and no claim below the
// smallest identity it could legitimately learn.
func consistent(s State, v *runtime.View) bool {
	if s.Parent == trees.None {
		return s.Root == v.ID && s.Dist == 0
	}
	if s.Root >= v.ID || s.Root <= 0 {
		return false
	}
	if s.Dist < 1 || s.Dist > v.N-1 {
		return false
	}
	// The parent must be a current neighbor. On a frozen graph only an
	// adversarial initialization can violate this; under live topology
	// churn it happens routinely — the parent's link went down, or the
	// parent left — and must read as inconsistency, not as a model
	// violation (View.Peer panics on non-neighbors by design).
	j, isNbr := slices.BinarySearch(v.Neighbors, s.Parent)
	if !isNbr {
		return false
	}
	p, ok := v.PeerAt(j).(State)
	if !ok {
		return false
	}
	// The parent must support the same root. (Its distance is tracked by
	// R2 rather than rejected here, so distance repairs do not tear the
	// tree down.)
	return p.Root == s.Root
}

// bestOffer returns the neighbor u minimizing (root, dist+1)
// lexicographically among offers within the distance cap.
func bestOffer(v *runtime.View, cap int) (graph.NodeID, State, bool) {
	var (
		bestU graph.NodeID
		best  State
		found bool
	)
	for j, u := range v.Neighbors {
		p, ok := v.PeerAt(j).(State)
		if !ok {
			continue
		}
		if p.Dist+1 > cap {
			continue
		}
		offer := State{Root: p.Root, Dist: p.Dist + 1}
		if !found || offer.Root < best.Root ||
			(offer.Root == best.Root && offer.Dist < best.Dist) {
			bestU, best, found = u, offer, true
		}
	}
	return bestU, best, found
}

// better reports whether the offer strictly improves on the current claim
// (smaller root, or same root and strictly smaller distance). Offers must
// also beat the node's own identity as a root claim.
func better(offer, cur State) bool {
	if offer.Root < cur.Root {
		return true
	}
	return offer.Root == cur.Root && offer.Dist < cur.Dist
}

// ArbitraryState implements runtime.Algorithm: arbitrary, possibly
// corrupted register contents — random identities (including nonexistent
// ones) and random distances.
func (Algorithm) ArbitraryState(rng *rand.Rand, v runtime.View) runtime.State {
	s := State{
		Root: graph.NodeID(rng.Intn(2*v.N) + 1), // possibly a fake identity
		Dist: rng.Intn(v.N + 2),
	}
	if len(v.Neighbors) == 0 || rng.Intn(3) == 0 {
		s.Parent = trees.None
	} else {
		s.Parent = v.Neighbors[rng.Intn(len(v.Neighbors))]
	}
	return s
}

// InitSelfRoot writes the post-reset configuration: every node is its
// own root. This is the benign initial configuration (the state R0
// resets to), from which the substrate stabilizes in O(diameter)
// synchronous rounds — no fake root identities to erode, so it is the
// right starting point for large-scale serving experiments, where a
// fully adversarial start costs Θ(n) rounds of distance-cap erosion.
func InitSelfRoot(net *runtime.Network) {
	for _, v := range net.Graph().Nodes() {
		net.SetState(v, selfRoot(v))
	}
}

// ExtractTree reads the stabilized parent pointers out of the network and
// validates that they form a spanning tree.
func ExtractTree(net *runtime.Network) (*trees.Tree, error) {
	parent := make(map[graph.NodeID]graph.NodeID, net.Graph().N())
	for _, v := range net.Graph().Nodes() {
		s, ok := net.State(v).(State)
		if !ok {
			return nil, fmt.Errorf("spanning: node %d has foreign state %v", v, net.State(v))
		}
		parent[v] = s.Parent
	}
	t, err := trees.FromParentMap(parent)
	if err != nil {
		return nil, fmt.Errorf("spanning: parent pointers not a tree: %w", err)
	}
	if !t.IsSpanningTreeOf(net.Graph()) {
		return nil, fmt.Errorf("spanning: extracted tree is not a spanning tree of the network")
	}
	return t, nil
}
