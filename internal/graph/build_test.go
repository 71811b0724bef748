package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The per-edge construction the generators and Clone used before
// build: nodes added one by one, then one sorted insert per arc. It
// stays here as the oracle build is held to.

func oraclePath(n int) *Graph {
	g := New()
	g.AddNode(1)
	for i := 1; i < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), Weight(i))
	}
	return g
}

func oracleRing(n int) *Graph {
	g := oraclePath(n)
	g.MustAddEdge(NodeID(n), 1, Weight(n))
	return g
}

func oracleStar(n int) *Graph {
	g := New()
	g.AddNode(1)
	for i := 2; i <= n; i++ {
		g.MustAddEdge(1, NodeID(i), Weight(i))
	}
	return g
}

func oracleComplete(n int) *Graph {
	g := New()
	g.AddNode(1)
	w := Weight(1)
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			g.MustAddEdge(NodeID(i), NodeID(j), w)
			w++
		}
	}
	return g
}

func oracleGrid(rows, cols int) *Graph {
	g := New()
	id := func(r, c int) NodeID { return NodeID(r*cols + c + 1) }
	w := Weight(1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddNode(id(r, c))
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1), w)
				w++
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c), w)
				w++
			}
		}
	}
	return g
}

func oracleCaterpillar(spine, legs int) *Graph {
	g := oraclePath(spine)
	next := NodeID(spine + 1)
	w := Weight(spine + 1)
	for i := 1; i <= spine; i++ {
		for j := 0; j < legs; j++ {
			g.MustAddEdge(NodeID(i), next, w)
			next++
			w++
		}
	}
	return g
}

func oracleLollipop(k, tail int) *Graph {
	g := oracleComplete(k)
	w := Weight(k*k + 1)
	prev := NodeID(k)
	for i := 1; i <= tail; i++ {
		next := NodeID(k + i)
		g.MustAddEdge(prev, next, w)
		prev = next
		w++
	}
	return g
}

func oracleDumbbell(k, bar int) *Graph {
	g := oracleComplete(k)
	w := Weight(k*k + 1)
	prev := NodeID(k)
	for i := 1; i <= bar; i++ {
		next := NodeID(k + i)
		g.MustAddEdge(prev, next, w)
		prev = next
		w++
	}
	base := k + bar
	for i := 1; i <= k; i++ {
		g.AddNode(NodeID(base + i))
		for j := i + 1; j <= k; j++ {
			g.MustAddEdge(NodeID(base+i), NodeID(base+j), w)
			w++
		}
	}
	g.MustAddEdge(prev, NodeID(base+1), w)
	return g
}

func oracleRandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	g := New()
	for i := 1; i <= n; i++ {
		g.AddNode(NodeID(i))
	}
	perm := rng.Perm(n)
	ids := make([]NodeID, n)
	for i, x := range perm {
		ids[i] = NodeID(x + 1)
	}
	maxW := int64(n) * int64(n-1) / 2 * 1000
	if maxW < 1000 {
		maxW = 1000
	}
	seen := make(map[Weight]bool, 2*n)
	nextWeight := func() Weight {
		for {
			w := Weight(rng.Int63n(maxW) + 1)
			if !seen[w] {
				seen[w] = true
				return w
			}
		}
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		g.MustAddEdge(ids[i], ids[j], nextWeight())
	}
	if p <= 0 {
		return g
	}
	total := n * (n - 1) / 2
	base := func(i int) int { return i*(n-1) - i*(i-1)/2 }
	skip := func() int {
		if p >= 1 {
			return 1
		}
		u := rng.Float64()
		return 1 + int(math.Log(1-u)/math.Log1p(-p))
	}
	row := 0
	for k := skip() - 1; k < total; k += skip() {
		for row+1 < n && k >= base(row+1) {
			row++
		}
		i, j := row, row+1+(k-base(row))
		u, v := NodeID(i+1), NodeID(j+1)
		if !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, nextWeight())
		}
	}
	return g
}

func oracleRandomGeometric(n int, radius float64, rng *rand.Rand) *Graph {
	type pt struct{ x, y float64 }
	pts := make([]pt, n+1)
	for i := 1; i <= n; i++ {
		pts[i] = pt{x: rng.Float64(), y: rng.Float64()}
	}
	dist := func(i, j int) float64 {
		dx, dy := pts[i].x-pts[j].x, pts[i].y-pts[j].y
		return math.Sqrt(dx*dx + dy*dy)
	}
	g := New()
	for i := 1; i <= n; i++ {
		g.AddNode(NodeID(i))
	}
	weightOf := func(i, j int) Weight {
		return Weight(int64(dist(i, j)*1e9)*int64(n*n) + int64(i*n+j))
	}
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			if dist(i, j) <= radius {
				g.MustAddEdge(NodeID(i), NodeID(j), weightOf(i, j))
			}
		}
	}
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

func oracleHamiltonianWheel(n int, chords int, rng *rand.Rand) *Graph {
	g := oracleRing(n)
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

func oracleClone(g *Graph) *Graph {
	out := New()
	for _, v := range g.nodes {
		out.AddNode(v)
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(e.U, e.V, e.W)
	}
	return out
}

// sameGraph fails unless got and want hold the same graph in the same
// layout: identities, edge count, edges, and — before the first Dense()
// where want's slots ascend, and after it always — the same slot space,
// CSR offsets, epochs and sortedness.
func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.Nodes(), want.Nodes()) || got.M() != want.M() {
		t.Fatalf("%s: nodes %v (m=%d), want %v (m=%d)", name, got.Nodes(), got.M(), want.Nodes(), want.M())
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatalf("%s: edges %v, want %v", name, got.Edges(), want.Edges())
	}
	if !want.d.fixed && want.d.Sorted() {
		sameSlots(t, &got.d, &want.d)
	}
	gd, wd := got.Dense(), want.Dense()
	sameSlots(t, gd, wd)
	if gd.packed != wd.packed || !slices.Equal(gd.off, wd.off) ||
		!slices.Equal(gd.nbrIDs, wd.nbrIDs) || !slices.Equal(gd.nbrIdx, wd.nbrIdx) || !slices.Equal(gd.wts, wd.wts) {
		t.Fatalf("%s: CSR (packed=%v off=%v) differs from the oracle's (packed=%v off=%v)",
			name, gd.packed, gd.off, wd.packed, wd.off)
	}
	if gd.Epoch() != wd.Epoch() || gd.NodeEpoch() != wd.NodeEpoch() || gd.Sorted() != wd.Sorted() || gd.N() != wd.N() {
		t.Fatalf("%s: epoch %d/%d sorted %v live %d, want %d/%d %v %d", name,
			gd.Epoch(), gd.NodeEpoch(), gd.Sorted(), gd.N(), wd.Epoch(), wd.NodeEpoch(), wd.Sorted(), wd.N())
	}
}

var oracleSizes = []int{0, 1, 2, 3, 5, 24, 200, 4000}

// TestGeneratorsMatchPerEdgeOracle holds every deterministic generator
// to the per-edge construction it replaced.
func TestGeneratorsMatchPerEdgeOracle(t *testing.T) {
	for _, n := range oracleSizes {
		sameGraph(t, fmt.Sprintf("Path(%d)", n), Path(n), oraclePath(n))
		sameGraph(t, fmt.Sprintf("Star(%d)", n), Star(n), oracleStar(n))
		if n >= 3 {
			sameGraph(t, fmt.Sprintf("Ring(%d)", n), Ring(n), oracleRing(n))
		}
		if n <= 200 {
			sameGraph(t, fmt.Sprintf("Complete(%d)", n), Complete(n), oracleComplete(n))
		}
	}
	small := []int{-1, 0, 1, 2, 3, 5, 24}
	for _, a := range small {
		for _, b := range small {
			sameGraph(t, fmt.Sprintf("Grid(%d,%d)", a, b), Grid(a, b), oracleGrid(a, b))
			sameGraph(t, fmt.Sprintf("Caterpillar(%d,%d)", a, b), Caterpillar(a, b), oracleCaterpillar(a, b))
			if a >= 0 {
				sameGraph(t, fmt.Sprintf("Lollipop(%d,%d)", a, b), Lollipop(a, b), oracleLollipop(a, b))
			}
			if a >= 1 && b >= 0 {
				sameGraph(t, fmt.Sprintf("Dumbbell(%d,%d)", a, b), Dumbbell(a, b), oracleDumbbell(a, b))
			}
		}
	}
}

// TestRandomGeneratorsMatchPerEdgeOracle holds the seeded generators
// to the per-edge construction, draw for draw: the same graph, and the
// same next value from the source afterwards. RandomConnected pairs
// whose expected edge count passes 200 000 (n = 4000 at p ≥ 0.2) are
// left out: the oracle's per-arc insert makes them minutes long.
func TestRandomGeneratorsMatchPerEdgeOracle(t *testing.T) {
	check := func(name string, seed int64, gen, oracle func(*rand.Rand) *Graph) {
		t.Helper()
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		sameGraph(t, name, gen(r1), oracle(r2))
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("%s: next draw %d, want %d", name, a, b)
		}
	}
	for _, n := range oracleSizes {
		for _, p := range []float64{0, 0.02, 0.2, 8 / float64(max(n, 1)), 0.5, 1} {
			if float64(n*n)*p > 400_000 {
				continue
			}
			for seed := int64(1); seed <= 10; seed++ {
				check(fmt.Sprintf("RandomConnected(%d, %g) seed %d", n, p, seed), seed,
					func(r *rand.Rand) *Graph { return RandomConnected(n, p, r) },
					func(r *rand.Rand) *Graph { return oracleRandomConnected(n, p, r) })
			}
		}
		if n > 200 {
			continue
		}
		for _, radius := range []float64{0, 0.1, 0.3, 1.5} {
			for seed := int64(1); seed <= 10; seed++ {
				check(fmt.Sprintf("RandomGeometric(%d, %g) seed %d", n, radius, seed), seed,
					func(r *rand.Rand) *Graph { return RandomGeometric(n, radius, r) },
					func(r *rand.Rand) *Graph { return oracleRandomGeometric(n, radius, r) })
			}
		}
		for _, chords := range []int{0, 5, 50} {
			for seed := int64(1); n >= 3 && seed <= 10; seed++ {
				check(fmt.Sprintf("HamiltonianWheel(%d, %d) seed %d", n, chords, seed), seed,
					func(r *rand.Rand) *Graph { return HamiltonianWheel(n, chords, r) },
					func(r *rand.Rand) *Graph { return oracleHamiltonianWheel(n, chords, r) })
			}
		}
	}
}

// churn applies a random run of structural mutations — removals, slot
// reuse, identities below the current maximum, edge flips — so that the
// store ends with holes and slots out of identity order.
func churn(g *Graph, rng *rand.Rand, steps int) {
	w := Weight(1 << 40)
	for range steps {
		u, v := NodeID(rng.Intn(2*g.N()+2)), NodeID(rng.Intn(2*g.N()+2))
		switch rng.Intn(4) {
		case 0:
			if g.HasNode(u) {
				if err := g.RemoveNode(u); err != nil {
					panic(err)
				}
			}
		case 1:
			g.AddNode(u)
		case 2:
			if u != v {
				g.MustAddEdge(u, v, w)
				w++
			}
		default:
			if g.HasEdge(u, v) {
				if err := g.RemoveEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
}

// TestCloneMatchesPerEdgeOracle clones fresh graphs and churned ones,
// whose slots have holes and no longer ascend.
func TestCloneMatchesPerEdgeOracle(t *testing.T) {
	for _, n := range oracleSizes {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := RandomConnected(n, 8/float64(max(n, 1)), rng)
			sameGraph(t, fmt.Sprintf("Clone(n=%d seed %d)", n, seed), g.Clone(), oracleClone(g))
			g.Dense()
			churn(g, rng, 3*n+10)
			if n >= 5 && g.Dense().Sorted() {
				t.Fatalf("n=%d seed %d: churn left the slots sorted", n, seed)
			}
			sameGraph(t, fmt.Sprintf("Clone(churned n=%d seed %d)", n, seed), g.Clone(), oracleClone(g))
		}
	}
	g := Grid(5, 7) // not cloned before its first Dense()
	sameGraph(t, "Clone(Grid(5,7))", g.Clone(), oracleClone(oracleGrid(5, 7)))
}

// TestMutateBeforeDense mutates freshly built graphs before their first
// Dense(): the packed rows unpack, and every step leaves the oracle's
// slot layout, before Dense() and after.
func TestMutateBeforeDense(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Graph)
	}{
		{"RemoveNode", func(g *Graph) { must(g.RemoveNode(7)) }},
		{"AddNode below the maximum", func(g *Graph) { g.AddNode(0) }},
		{"AddNode into a vacated slot", func(g *Graph) { must(g.RemoveNode(3)); g.AddNode(2000) }},
		{"AddEdge", func(g *Graph) { g.MustAddEdge(2, 19, 1<<40); g.MustAddEdge(30, 1, 1<<41) }},
		{"RemoveEdge", func(g *Graph) { e := g.Edges()[5]; must(g.RemoveEdge(e.V, e.U)) }},
		{"UpdateEdgeWeight", func(g *Graph) { e := g.Edges()[3]; must(g.UpdateEdgeWeight(e.U, e.V, 1<<42)) }},
	} {
		for seed := int64(1); seed <= 10; seed++ {
			got := RandomConnected(24, 0.2, rand.New(rand.NewSource(seed)))
			want := oracleRandomConnected(24, 0.2, rand.New(rand.NewSource(seed)))
			for _, pair := range [][2]*Graph{{got.Clone(), oracleClone(want)}, {got, want}} {
				for _, g := range pair {
					tc.mutate(g)
				}
				sameSlots(t, &pair[0].d, &pair[1].d)
				sameGraph(t, fmt.Sprintf("%s seed %d", tc.name, seed), pair[0], pair[1])
			}
		}
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// TestBuildRejectsMalformedLists: build's contract — distinct pairs of
// distinct members over non-negative identities — panics when broken
// rather than packing a store whose edge count disagrees with its arcs.
func TestBuildRejectsMalformedLists(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []NodeID
		edges []Edge
	}{
		{"self-loop", []NodeID{1, 2}, []Edge{{U: 2, V: 2}}},
		{"unknown endpoint", []NodeID{1, 2}, []Edge{{U: 1, V: 3}}},
		{"edge listed twice", []NodeID{1, 2, 3}, []Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 2, V: 1}}},
		{"negative identity", []NodeID{-1, 2}, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: build accepted %v %v", tc.name, tc.nodes, tc.edges)
				}
			}()
			build(tc.nodes, tc.edges)
		}()
	}
}

// TestOnePassConstructionAllocs pins the one-pass construction: a
// RandomConnected(20000, 8/n) makes a few hundred allocations (the
// weight set's tables among them), not one per arc insert as the
// per-edge build's 260 000, and a Clone a dozen, not 290 000.
func TestOnePassConstructionAllocs(t *testing.T) {
	n := 20000
	var g *Graph
	gen := testing.AllocsPerRun(2, func() {
		g = RandomConnected(n, 8/float64(n), rand.New(rand.NewSource(1)))
	})
	clone := testing.AllocsPerRun(2, func() { g.Clone() })
	t.Logf("RandomConnected(%d, 8/n): %.0f allocs for %d edges; Clone: %.0f allocs", n, gen, g.M(), clone)
	if gen > 300 {
		t.Errorf("RandomConnected made %.0f allocations, want at most 300", gen)
	}
	if clone > 16 {
		t.Errorf("Clone made %.0f allocations, want at most 16", clone)
	}
}

// FuzzBuildMatchesAddEdge holds build to the per-edge construction on
// arbitrary edge lists over sparse identities (so slot lookups search):
// each three bytes name an edge, self-loops and repeated pairs are
// dropped, and isolated nodes pad the identity space.
func FuzzBuildMatchesAddEdge(f *testing.F) {
	f.Add([]byte{1, 2, 9, 2, 3, 8, 3, 1, 7}, uint8(2))
	f.Add([]byte{0, 5, 1, 5, 0, 2, 9, 9, 3, 200, 4, 4}, uint8(0))
	f.Add([]byte{}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, isolated uint8) {
		id := func(b byte) NodeID { return NodeID(b) * 3 }
		want := New()
		var edges []Edge
		nodes := map[NodeID]bool{}
		for k := range isolated % 16 {
			nodes[id(byte(k*37))] = true
		}
		for k := 0; k+2 < len(data); k += 3 {
			u, v := id(data[k]), id(data[k+1])
			if u == v || slices.ContainsFunc(edges, func(e Edge) bool { return SameEndpoints(e, Edge{U: u, V: v}) }) {
				continue
			}
			edges = append(edges, Edge{U: u, V: v, W: Weight(data[k+2])})
			nodes[u], nodes[v] = true, true
		}
		ids := make([]NodeID, 0, len(nodes))
		for v := range nodes {
			ids = append(ids, v)
		}
		slices.Sort(ids)
		for _, v := range ids {
			want.AddNode(v)
		}
		for _, e := range edges {
			want.MustAddEdge(e.U, e.V, e.W)
		}
		sameGraph(t, "build", build(ids, edges), want)
	})
}
