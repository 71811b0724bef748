package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// The generators below produce the graph families used throughout the
// experiments: regular topologies exercising worst cases of the paper's
// algorithms (paths and rings maximize stabilization distance, complete
// graphs maximize degree, lollipops stress the MDST potential), and random
// families standing in for the sensor networks that motivated the paper's
// interest in MDST (Section I-D, the 802.15.4 MAC protocol design).
//
// All generators number nodes 1..n and, where weighted, assign pairwise
// distinct weights (Section II-A assumes distinct weights w.l.o.g.).

// Path returns the path 1-2-...-n.
func Path(n int) *Graph { return fromEdges(1, chain(nil, 1, n-1, 1)) }

// Ring returns the cycle 1-2-...-n-1. It panics for n < 3.
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: ring needs n >= 3, got %d", n))
	}
	return fromEdges(1, append(chain(nil, 1, n-1, 1), Edge{U: NodeID(n), V: 1, W: Weight(n)}))
}

// Star returns the star with center 1 and leaves 2..n.
func Star(n int) *Graph {
	var edges []Edge
	for i := 2; i <= n; i++ {
		edges = append(edges, Edge{U: 1, V: NodeID(i), W: Weight(i)})
	}
	return fromEdges(1, edges)
}

// Complete returns the complete graph K_n with distinct weights.
func Complete(n int) *Graph {
	edges, _ := clique(nil, 0, n, 1)
	return fromEdges(1, edges)
}

// clique appends the edges of the clique on nodes base+1..base+k,
// weighted w, w+1, ... in (i, j) order, and returns the next weight.
func clique(edges []Edge, base, k int, w Weight) ([]Edge, Weight) {
	for i := 1; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			edges = append(edges, Edge{U: NodeID(base + i), V: NodeID(base + j), W: w})
			w++
		}
	}
	return edges, w
}

// Grid returns the rows x cols grid graph, nodes numbered row-major
// starting at 1.
func Grid(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		return New()
	}
	id := func(r, c int) NodeID { return NodeID(r*cols + c + 1) }
	var edges []Edge
	w := Weight(1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{U: id(r, c), V: id(r, c+1), W: w})
				w++
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: id(r, c), V: id(r+1, c), W: w})
				w++
			}
		}
	}
	return fromEdges(rows*cols, edges)
}

// Caterpillar returns a spine of length spine with legs leaves attached to
// every spine node. Caterpillars stress heavy-path decompositions.
func Caterpillar(spine, legs int) *Graph {
	edges := chain(nil, 1, spine-1, 1)
	next := NodeID(spine + 1)
	w := Weight(spine + 1)
	for i := 1; i <= spine; i++ {
		for j := 0; j < legs; j++ {
			edges = append(edges, Edge{U: NodeID(i), V: next, W: w})
			next++
			w++
		}
	}
	return fromEdges(1, edges)
}

// Lollipop returns a clique of size k attached to a path of length tail.
// Lollipop graphs have minimum spanning-tree degree close to k-1 near the
// clique, stressing the MDST improvement steps.
func Lollipop(k, tail int) *Graph {
	edges, _ := clique(nil, 0, k, 1)
	return fromEdges(1, chain(edges, NodeID(k), tail, Weight(k*k+1)))
}

// chain appends the path from prev through the k new nodes prev+1,
// ..., prev+k, weighted w, w+1, ...
func chain(edges []Edge, prev NodeID, k int, w Weight) []Edge {
	for range k {
		edges = append(edges, Edge{U: prev, V: prev + 1, W: w})
		prev++
		w++
	}
	return edges
}

// Dumbbell returns two cliques of size k joined by a path of bar inner
// nodes (bar = 0 joins the cliques by a single edge). Dumbbells combine
// the worst cases of lollipops at both ends: high-degree regions far
// apart, joined by a cut path every tree must cross — adversarial for
// stabilization distance and for MDST degree pressure at once. It
// panics for k < 1 or bar < 0.
func Dumbbell(k, bar int) *Graph {
	if k < 1 || bar < 0 {
		panic(fmt.Sprintf("graph: dumbbell needs k >= 1 and bar >= 0, got %d, %d", k, bar))
	}
	edges, _ := clique(nil, 0, k, 1)
	// Path of bar inner nodes from clique A's last node...
	edges = chain(edges, NodeID(k), bar, Weight(k*k+1))
	// ...into clique B on nodes k+bar+1 .. 2k+bar.
	edges, w := clique(edges, k+bar, k, Weight(k*k+1+bar))
	edges = append(edges, Edge{U: NodeID(k + bar), V: NodeID(k + bar + 1), W: w})
	return fromEdges(1, edges)
}

// fromEdges builds the graph on the identities 1..n, widened to every
// endpoint of edges: each generator's node set is one such range.
func fromEdges(n int, edges []Edge) *Graph {
	lo, hi := NodeID(1), NodeID(n)
	for _, e := range edges {
		lo, hi = min(lo, e.U, e.V), max(hi, e.U, e.V)
	}
	nodes := make([]NodeID, 0, max(hi-lo+1, 0))
	for v := lo; v <= hi; v++ {
		nodes = append(nodes, v)
	}
	return build(nodes, edges)
}

// RandomConnected returns a connected Erdős–Rényi-style graph: a random
// spanning tree plus each remaining pair independently with probability p,
// with pairwise distinct random weights. Deterministic given rng; a p
// that is not positive (NaN included) adds no pair.
//
// The non-tree pairs are chosen by geometric skip-sampling, so the cost
// is O(n + m) rather than the O(n²) of testing every pair — the
// difference between milliseconds and half a minute at the 10k-node
// scale of the routing experiments. The edges are collected in a list
// and packed in one pass (build), never inserted one by one.
func RandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	perm := rng.Perm(n)
	// Weights stay in the historical [1, n(n-1)/2 * 1000] range: wide
	// enough for distinctness, small enough that tree-weight sums and
	// O(log weight) label encodings behave.
	maxW := int64(n) * int64(n-1) / 2 * 1000
	if maxW < 1000 {
		maxW = 1000
	}
	total := n * (n - 1) / 2
	// The expected edge count, plus three deviations of the sample's.
	want := float64(max(n-1, 0))
	if p > 0 {
		want += min(p, 1) * float64(total-max(n-1, 0))
	}
	want += 3 * math.Sqrt(want)
	seen := make(map[Weight]struct{}, int(want))
	nextWeight := func() Weight {
		for {
			w := Weight(rng.Int63n(maxW) + 1)
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				return w
			}
		}
	}
	edges := make([]Edge, 0, int(want))
	// Random spanning tree: attach each node to a random earlier node.
	// parent lists the tree's n-1 arcs, one per node but the first.
	parent := make([]NodeID, n+1)
	for i := 1; i < n; i++ {
		u, v := NodeID(perm[i]+1), NodeID(perm[rng.Intn(i)]+1)
		parent[u] = v
		edges = append(edges, Edge{U: u, V: v, W: nextWeight()})
	}
	if !(p > 0) {
		return fromEdges(n, edges)
	}
	// Enumerate the pairs (i, j), i < j, as a linear index space and jump
	// between selected pairs with geometrically distributed skips.
	base := func(i int) int { return i*(n-1) - i*(i-1)/2 } // index of (i, i+1)
	row := 0
	for k := -1; ; {
		// A skip, less one, stays a float until it is known to land on
		// a pair: a tiny p's overflows an int.
		s := 0.0
		if p < 1 {
			s = math.Log(1-rng.Float64()) / math.Log1p(-p)
		}
		if !(s < float64(total-k-1)) {
			break
		}
		k += 1 + int(s)
		for row+1 < n && k >= base(row+1) {
			row++
		}
		i, j := row, row+1+(k-base(row))
		u, v := NodeID(i+1), NodeID(j+1)
		// Sampled pairs are distinct, so only a tree edge can repeat.
		if parent[u] != v && parent[v] != u {
			edges = append(edges, Edge{U: u, V: v, W: nextWeight()})
		}
	}
	return fromEdges(n, edges)
}

// RandomGeometric returns a random geometric graph: n points uniform in
// the unit square, edges between pairs within distance radius, weights =
// scaled distances made distinct by index perturbation. If the result is
// disconnected, nearest components are stitched. This family models the
// sensor networks (802.15.4) motivating the paper's MDST application.
func RandomGeometric(n int, radius float64, rng *rand.Rand) *Graph {
	type pt struct{ x, y float64 }
	pts := make([]pt, n+1)
	for i := 1; i <= n; i++ {
		pts[i] = pt{x: rng.Float64(), y: rng.Float64()}
	}
	dist := func(i, j int) float64 {
		dx, dy := pts[i].x-pts[j].x, pts[i].y-pts[j].y
		return math.Sqrt(dx*dx + dy*dy)
	}
	// Distinct weights: scale distance to integer and break ties by pair
	// index, preserving the geometric ordering almost everywhere.
	weightOf := func(i, j int) Weight {
		return Weight(int64(dist(i, j)*1e9)*int64(n*n) + int64(i*n+j))
	}
	var edges []Edge
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			if dist(i, j) <= radius {
				edges = append(edges, Edge{U: NodeID(i), V: NodeID(j), W: weightOf(i, j)})
			}
		}
	}
	g := fromEdges(n, edges)
	// Stitch components with the shortest available inter-component link.
	for !g.Connected() {
		comp := components(g)
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 1; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if comp[NodeID(i)] != comp[NodeID(j)] && dist(i, j) < best {
					best, bi, bj = dist(i, j), i, j
				}
			}
		}
		g.MustAddEdge(NodeID(bi), NodeID(bj), weightOf(bi, bj))
	}
	return g
}

// HamiltonianWheel returns a Hamiltonian graph: a ring plus chords. Every
// Hamiltonian graph has an FR-tree given by its Hamiltonian path with all
// nodes marked bad (paper, Section VIII).
func HamiltonianWheel(n int, chords int, rng *rand.Rand) *Graph {
	g := Ring(n)
	w := Weight(10 * n)
	for c := 0; c < chords; c++ {
		u := NodeID(rng.Intn(n) + 1)
		v := NodeID(rng.Intn(n) + 1)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, w)
			w++
		}
	}
	return g
}

// components labels each node with a component representative.
func components(g *Graph) map[NodeID]NodeID {
	comp := make(map[NodeID]NodeID, g.N())
	for _, start := range g.Nodes() {
		if _, ok := comp[start]; ok {
			continue
		}
		stack := []NodeID{start}
		comp[start] = start
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(v) {
				if _, ok := comp[u]; !ok {
					comp[u] = start
					stack = append(stack, u)
				}
			}
		}
	}
	return comp
}
