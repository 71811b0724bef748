// Package routing serves traffic over the stabilized constrained
// spanning trees: it is the first consumer of the trees the rest of the
// repository constructs, turning the reproduction into a system that
// measurably routes packets (the sensor-network motivation of the
// paper's Section I).
//
// The design follows the production pattern of yggdrasil's spanning-tree
// switch: every node is labeled with its root-to-node *coordinates* —
// the sequence of child ports on the tree path from the root — so that
// the tree distance between any two nodes is computable from the two
// labels alone (lengths minus twice the longest common prefix). A
// packet is forwarded greedily: each hop moves to the neighbor whose
// coordinates are strictly closest to the destination's, over *all*
// graph edges, so non-tree edges act as shortcuts and the delivered
// route can be shorter than the tree path. Because the tree distance to
// the destination strictly decreases at every hop, routing over a
// consistent labeling is loop-free and always delivers.
//
// The package provides:
//
//   - Coords and Labeling: the coordinate labeler over any *trees.Tree
//     (and, for fault experiments, over raw — possibly broken — parent
//     pointers read out of a live network), with compact encoded labels
//     whose size is accounted in bits via internal/bits;
//   - Router: hop-by-hop greedy forwarding with tree-only and
//     shortcutting modes, loop and drop detection;
//   - the traffic engine: workload generators (uniform pairs, hotspot,
//     all-pairs samples) and a driver measuring delivery, hop counts,
//     and stretch against exact shortest paths;
//   - the serving episode's parts, each written once for the
//     campaigns, benches and commands built on them: the algorithm
//     registry and substrate bring-up (Algo, BringUp), the reader of a
//     tree claim out of a raw register (ParentOf), and the live-router
//     rig (Live) — a LiveLabeler fed by the network's state and topology
//     listeners, so the router forwards over exactly what the registers
//     currently support while the tree repairs itself underneath it;
//   - the fault-interplay runner (RunInterplay), the episode in its
//     plainest form: corrupt registers mid-traffic, keep routing over
//     the decaying labeling through the repair windows, and measure how
//     many in-flight packets loop or drop, per substrate.
package routing

import (
	"fmt"
	"strings"

	"silentspan/internal/bits"
)

// Port is one coordinate element: the index of a child within its
// parent's sorted children list, as assigned by trees.Index.PortOf.
type Port uint16

// Coords is a node's tree coordinate: the port path from the root to
// the node. The root's coordinate is the empty path. Coordinates are
// value-like; callers must not mutate a Coords obtained from a Labeling.
type Coords []Port

// Dist returns the tree distance between the nodes labeled c and d:
// both walk up to their nearest common ancestor (the longest common
// prefix of the coordinates), so the distance is the total length
// beyond that prefix.
func (c Coords) Dist(d Coords) int {
	p := 0
	for p < len(c) && p < len(d) && c[p] == d[p] {
		p++
	}
	return (len(c) - p) + (len(d) - p)
}

// IsAncestorOf reports whether c labels an ancestor of the node labeled
// d (every node is an ancestor of itself).
func (c Coords) IsAncestorOf(d Coords) bool {
	if len(c) > len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Equal reports whether c and d are the same coordinate.
func (c Coords) Equal(d Coords) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Encode returns the compact self-delimiting encoding of c: the
// Elias-gamma code of the path length plus one, followed by the gamma
// code of each port plus one. Ports on high-degree nodes cost more
// bits, mirroring the space accounting of the paper's labeling schemes.
func (c Coords) Encode() bits.String {
	s := bits.AppendGamma(bits.String{}, uint64(len(c))+1)
	for _, p := range c {
		s = bits.AppendGamma(s, uint64(p)+1)
	}
	return s
}

// EncodedBits returns the length in bits of Encode without building it.
func (c Coords) EncodedBits() int {
	n := bits.GammaLen(uint64(len(c)) + 1)
	for _, p := range c {
		n += bits.GammaLen(uint64(p) + 1)
	}
	return n
}

// DecodeCoords parses the encoding produced by Encode from the front of
// r, so labels can travel inside registers next to other fields.
func DecodeCoords(r *bits.Reader) (Coords, error) {
	length, err := bits.ReadGamma(r)
	if err != nil {
		return nil, fmt.Errorf("routing: coord length: %w", err)
	}
	length--
	// Every port code costs at least one bit, so a length claim beyond
	// the remaining input is corrupt — reject it before sizing the
	// slice, or an adversarial ~60-bit input could demand exabytes.
	if length > uint64(r.Remaining()) {
		return nil, fmt.Errorf("routing: coord length %d exceeds %d remaining bits", length, r.Remaining())
	}
	out := make(Coords, 0, length)
	for i := uint64(0); i < length; i++ {
		p, err := bits.ReadGamma(r)
		if err != nil {
			return nil, fmt.Errorf("routing: coord port %d: %w", i, err)
		}
		if p-1 > uint64(^Port(0)) {
			return nil, fmt.Errorf("routing: coord port %d overflows (%d)", i, p-1)
		}
		out = append(out, Port(p-1))
	}
	return out, nil
}

// String renders the coordinate as a slash-separated port path.
func (c Coords) String() string {
	if len(c) == 0 {
		return "/"
	}
	var b strings.Builder
	for _, p := range c {
		fmt.Fprintf(&b, "/%d", p)
	}
	return b.String()
}
