// Package nca implements the informative labeling scheme for nearest
// common ancestors used in Section V of the paper (after Alstrup,
// Gavoille, Kaplan and Rauhe [6]): every node of a rooted tree receives an
// O(log n)-bit label such that the label of nca(u,v) is computable from
// the labels of u and v alone. The paper uses these labels to let every
// node decide locally whether it lies on the fundamental cycle of T + e.
//
// # Label structure
//
// The tree is decomposed into heavy paths. The root-to-v walk crosses a
// sequence of heavy paths; for each, the label carries a *segment*:
//
//	γ(len(pos)) · pos · contBit · [γ(len(child)) · child]   (cont = 1)
//	γ(len(pos)) · pos · 0                                   (last segment)
//
// where pos is the Gilbert–Moore alphabetic code of the node's position
// on the heavy path, weighted by off-path subtree weights (so code
// lengths telescope to O(log n) along the whole walk), and child is the
// alphabetic code of the light child taken, weighted by child subtree
// sizes. The Elias-γ length prefixes make labels self-delimiting, so nca
// can parse them with no access to the tree; the alphabetic property
// makes position codes comparable lexicographically without decoding.
//
// # NCA computation
//
// Given two labels, find the longest common prefix of segments. At the
// first divergence the two nodes sit on (or hang off) a common heavy
// path: if their position codes differ, the nca is the node at the
// lexicographically smaller position; otherwise it is the node at that
// shared position. Either way its label is a prefix of one input label,
// re-terminated with a stop bit.
package nca

import (
	"fmt"
	"slices"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

// Label is a node's NCA label: a self-delimiting bit string.
type Label struct {
	raw bits.String
}

// Len returns the label length in bits — the quantity bounded by
// O(log n) in the paper.
func (l Label) Len() int { return l.raw.Len() }

// Equal reports whether two labels are identical.
func (l Label) Equal(o Label) bool { return l.raw.Equal(o.raw) }

// String renders the label as a 0/1 string.
func (l Label) String() string { return l.raw.String() }

// segment is one parsed label segment.
type segment struct {
	pos bits.String
	// posEnd is the bit offset just after pos (before the cont bit).
	posEnd int
	cont   bool
	child  bits.String
	// end is the bit offset just after the whole segment.
	end int
}

// parse splits a label into segments. It returns an error on malformed
// labels (corrupted registers produce those; verifiers must reject, not
// panic).
func parse(l Label) ([]segment, error) {
	r := bits.NewReader(l.raw)
	var segs []segment
	for {
		plen, err := bits.ReadGamma(r)
		if err != nil {
			return nil, fmt.Errorf("nca: bad position length: %w", err)
		}
		pos, err := r.ReadString(int(plen))
		if err != nil {
			return nil, fmt.Errorf("nca: truncated position code: %w", err)
		}
		posEnd := r.Pos()
		cont, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("nca: missing continuation bit: %w", err)
		}
		seg := segment{pos: pos, posEnd: posEnd, cont: cont}
		if cont {
			clen, err := bits.ReadGamma(r)
			if err != nil {
				return nil, fmt.Errorf("nca: bad child length: %w", err)
			}
			child, err := r.ReadString(int(clen))
			if err != nil {
				return nil, fmt.Errorf("nca: truncated child code: %w", err)
			}
			seg.child = child
		}
		seg.end = r.Pos()
		segs = append(segs, seg)
		if !cont {
			break
		}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("nca: %d trailing bits after final segment", r.Remaining())
	}
	return segs, nil
}

// NCA computes the label of the nearest common ancestor of the nodes
// labeled a and b, from the labels alone.
func NCA(a, b Label) (Label, error) {
	segA, err := parse(a)
	if err != nil {
		return Label{}, fmt.Errorf("nca: first label: %w", err)
	}
	segB, err := parse(b)
	if err != nil {
		return Label{}, fmt.Errorf("nca: second label: %w", err)
	}
	for j := 0; j < len(segA) && j < len(segB); j++ {
		sa, sb := segA[j], segB[j]
		if !sa.pos.Equal(sb.pos) {
			// Same heavy path, different positions: the nca is at the
			// smaller (closer to the head) position. Alphabetic codes
			// compare lexicographically.
			if sa.pos.Compare(sb.pos) < 0 {
				return stopAt(a, sa), nil
			}
			return stopAt(b, sb), nil
		}
		// Same position on the same heavy path.
		if !sa.cont || !sb.cont {
			// At least one of the walks ends here; the node at this
			// position is an ancestor of both.
			return stopAt(a, sa), nil
		}
		if !sa.child.Equal(sb.child) {
			// The walks leave this node via different light children:
			// the node itself is the nca.
			return stopAt(a, sa), nil
		}
	}
	// Identical labels: nca(v, v) = v.
	return a, nil
}

// stopAt returns the label consisting of l's bits up to and including
// seg's position code, terminated with a stop bit.
func stopAt(l Label, seg segment) Label {
	return Label{raw: l.raw.Prefix(seg.posEnd).AppendBit(false)}
}

// IsAncestor reports whether the node labeled a is an ancestor of (or
// equal to) the node labeled b, computed from labels alone.
func IsAncestor(a, b Label) (bool, error) {
	m, err := NCA(a, b)
	if err != nil {
		return false, err
	}
	return m.Equal(a), nil
}

// OnTreePath reports whether the node labeled x lies on the tree path
// between the nodes labeled u and v. This is the fundamental-cycle
// membership test of Section V: x is on the cycle of T + {u,v} iff
//
//	nca(x,u) = x and nca(x,v) = nca(u,v), or
//	nca(x,u) = nca(u,v) and nca(x,v) = x.
func OnTreePath(x, u, v Label) (bool, error) {
	m, err := NCA(u, v)
	if err != nil {
		return false, err
	}
	xu, err := NCA(x, u)
	if err != nil {
		return false, err
	}
	xv, err := NCA(x, v)
	if err != nil {
		return false, err
	}
	if xu.Equal(x) && xv.Equal(m) {
		return true, nil
	}
	if xu.Equal(m) && xv.Equal(x) {
		return true, nil
	}
	return false, nil
}

// Labeling is a complete label assignment for one tree, along with the
// auxiliary per-node certificates (W, S) used by the proof-labeling
// scheme of Lemma 5.1.
type Labeling struct {
	tree   *trees.Tree
	decomp *trees.HeavyPathDecomposition
	labels map[graph.NodeID]Label
	// pathWeight[v] (the W certificate) is the subtree size of the head
	// of v's heavy path.
	pathWeight map[graph.NodeID]int
	// cumWeight[v] (the S certificate) is the sum of off-path weights of
	// the positions before v on its heavy path; equivalently
	// size(head) - size(v).
	cumWeight map[graph.NodeID]int
	byLabel   map[string]graph.NodeID
}

// Build computes the labeling of t.
func Build(t *trees.Tree) (*Labeling, error) {
	d := trees.Decompose(t)
	lb := &Labeling{
		tree:       t,
		decomp:     d,
		labels:     make(map[graph.NodeID]Label, t.N()),
		pathWeight: make(map[graph.NodeID]int, t.N()),
		cumWeight:  make(map[graph.NodeID]int, t.N()),
		byLabel:    make(map[string]graph.NodeID, t.N()),
	}
	// prefix[h] is the label content preceding the position code of the
	// heavy path headed by h.
	prefix := map[graph.NodeID]bits.String{t.Root(): {}}
	// Process heads in BFS order from the root so prefixes exist.
	order := []graph.NodeID{t.Root()}
	seen := map[graph.NodeID]bool{t.Root(): true}
	for i := 0; i < len(order); i++ {
		h := order[i]
		path := d.Path(h)
		posCode, err := positionCode(d, path)
		if err != nil {
			return nil, err
		}
		cum := 0
		for idx, x := range path {
			lb.pathWeight[x] = d.SubtreeSize(h)
			lb.cumWeight[x] = cum
			cum += d.OffPathWeight(x)
			pc := posCode.Code(idx)
			base := prefix[h]
			withPos := bits.AppendGamma(base, uint64(pc.Len())).Concat(pc)
			lb.labels[x] = Label{raw: withPos.AppendBit(false)}
			// Extend prefixes into light children.
			light := lightChildren(t, d, x)
			if len(light) == 0 {
				continue
			}
			childCode, err := childCodeFor(d, light)
			if err != nil {
				return nil, err
			}
			for ci, c := range light {
				cc := childCode.Code(ci)
				p := withPos.AppendBit(true)
				p = bits.AppendGamma(p, uint64(cc.Len())).Concat(cc)
				prefix[c] = p
				if !seen[c] {
					seen[c] = true
					order = append(order, c)
				}
			}
		}
	}
	for v, l := range lb.labels {
		key := l.String()
		if prev, dup := lb.byLabel[key]; dup {
			return nil, fmt.Errorf("nca: nodes %d and %d share label %s", prev, v, key)
		}
		lb.byLabel[key] = v
	}
	return lb, nil
}

// positionCode builds the alphabetic code of positions along a heavy
// path, weighted by off-path weights (AGKR's telescoping trick).
func positionCode(d *trees.HeavyPathDecomposition, path []graph.NodeID) (*bits.AlphabeticCode, error) {
	ws := make([]uint64, len(path))
	for i, x := range path {
		ws[i] = uint64(d.OffPathWeight(x))
	}
	code, err := bits.NewAlphabeticCode(ws)
	if err != nil {
		return nil, fmt.Errorf("nca: position code: %w", err)
	}
	return code, nil
}

// childCodeFor builds the alphabetic code over the light children of a
// node (ordered by ID), weighted by subtree sizes.
func childCodeFor(d *trees.HeavyPathDecomposition, light []graph.NodeID) (*bits.AlphabeticCode, error) {
	ws := make([]uint64, len(light))
	for i, c := range light {
		ws[i] = uint64(d.SubtreeSize(c))
	}
	code, err := bits.NewAlphabeticCode(ws)
	if err != nil {
		return nil, fmt.Errorf("nca: child code: %w", err)
	}
	return code, nil
}

// lightChildren returns v's children except its heavy child, by ID.
func lightChildren(t *trees.Tree, d *trees.HeavyPathDecomposition, v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, c := range t.Children(v) {
		if c != d.HeavyChild(v) {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}

// Label returns the label of node v.
func (lb *Labeling) Label(v graph.NodeID) Label { return lb.labels[v] }

// NodeOf resolves a label back to its node; ok is false for labels not
// assigned to any node.
func (lb *Labeling) NodeOf(l Label) (graph.NodeID, bool) {
	v, ok := lb.byLabel[l.String()]
	return v, ok
}

// MaxLabelBits returns the maximum label length in bits over all nodes —
// the space bound of Lemma 5.1, O(log n).
func (lb *Labeling) MaxLabelBits() int {
	max := 0
	for _, l := range lb.labels {
		if l.Len() > max {
			max = l.Len()
		}
	}
	return max
}

// PathWeight returns the W certificate of v (subtree size of v's heavy
// path head).
func (lb *Labeling) PathWeight(v graph.NodeID) int { return lb.pathWeight[v] }

// CumWeight returns the S certificate of v (off-path weight accumulated
// before v's position on its heavy path).
func (lb *Labeling) CumWeight(v graph.NodeID) int { return lb.cumWeight[v] }

// Tree returns the labeled tree.
func (lb *Labeling) Tree() *trees.Tree { return lb.tree }

// ConstructionRounds returns the number of rounds charged for the silent
// self-stabilizing construction of the labeling (Lemma 5.1: O(n)). The
// accounting follows the wave structure of the construction: one
// convergecast of subtree sizes (height rounds), one broadcast of path
// weights down heavy paths (height rounds), one top-down label assembly
// wave (height rounds), and a per-node code-serving phase in which a
// parent hands each light child its child code through its register
// (max light-degree rounds, the state-model replacement for per-child
// messages).
func (lb *Labeling) ConstructionRounds() int {
	depths := lb.tree.Depths()
	height := 0
	for _, d := range depths {
		if d > height {
			height = d
		}
	}
	maxLight := 0
	for _, v := range lb.tree.Nodes() {
		if l := len(lightChildren(lb.tree, lb.decomp, v)); l > maxLight {
			maxLight = l
		}
	}
	return 3*(height+1) + maxLight
}
