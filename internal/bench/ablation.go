package bench

import (
	"fmt"
	"math/rand"

	"silentspan/internal/cert"
	"silentspan/internal/graph"
	"silentspan/internal/nca"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// The A-tables are ablations of the paper's design choices (DESIGN.md
// §4): what breaks, and by how much, when an ingredient is removed.

// naiveSwitcher performs the same parent change as the Section IV
// protocol but WITHOUT the pruning waves: the initiator rewrites its
// parent and distance directly, and the ordinary maintenance rules mop
// up distances and sizes afterwards. The tree stays a tree (the swap is
// still a fundamental-cycle swap), but labels are transiently wrong, so
// the Lemma 4.1 verifier raises alarms mid-repair — exactly the failure
// the malleable scheme exists to prevent.
type naiveSwitcher struct{}

func (naiveSwitcher) Name() string { return "naive-switch" }

func (naiveSwitcher) Step(v runtime.View) runtime.State {
	s, ok := switching.RegOf(v.Self)
	if !ok {
		return switching.SelfRoot(v.ID)
	}
	// The pending request is executed immediately: no waves, no checks
	// beyond neighbor validity.
	if s.Sw == switching.SwReq {
		if t, ok := switching.RegOf(v.Peer(s.SwTarget)); ok && t.HasD {
			s.Parent = s.SwTarget
			s.D = t.D + 1
			s.Sw, s.SwTarget = switching.SwIdle, trees.None
			return s
		}
		s.Sw, s.SwTarget = switching.SwIdle, trees.None
		return s
	}
	return switching.StepReg(s, v)
}

func (naiveSwitcher) ArbitraryState(rng *rand.Rand, v runtime.View) runtime.State {
	return switching.Algorithm{}.ArbitraryState(rng, v)
}

// A1Malleability contrasts the Section IV protocol against the naive
// immediate switch: both perform the same legal swap from the same legal
// configuration; the table counts configurations (after each step) in
// which at least one node's Lemma 4.1 verifier rejects.
func A1Malleability(ns []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "A1 (ablation): switching with vs without the malleable pruning waves",
		Header: []string{"n", "protocol-alarms", "protocol-rounds", "naive-alarms", "naive-rounds"},
		Notes: []string{
			"alarm = a post-step configuration some node's verifier rejects",
			"removing the pruning waves keeps the tree but breaks silence-compatibility: detectors fire during repair",
		},
	}
	for _, n := range ns {
		g := graph.Ring(n)
		tr, err := trees.BFSTree(g, 1)
		if err != nil {
			return nil, err
		}
		e := tr.NonTreeEdges(g)[0]
		v, target := e.U, e.V
		if tr.Parent(v) == trees.None {
			v, target = e.V, e.U
		}
		countAlarms := func(alg runtime.Algorithm) (alarms, rounds int, err error) {
			net, err := runtime.NewNetwork(g, alg)
			if err != nil {
				return 0, 0, err
			}
			if err := switching.InitFromTree(net, tr); err != nil {
				return 0, 0, err
			}
			net.AddMonitor(runtime.MonitorFunc(func(nn *runtime.Network) error {
				a, err := switching.ToAssignment(nn)
				if err != nil {
					return err
				}
				if a.Verify(nn.Graph()) != nil {
					alarms++
				}
				return nil // count, do not abort
			}))
			if err := switching.InjectSwitch(net, v, target); err != nil {
				return 0, 0, err
			}
			res, err := net.Run(runtime.Synchronous(), 5_000_000)
			if err != nil {
				return 0, 0, err
			}
			if !res.Silent {
				return 0, 0, fmt.Errorf("not silent")
			}
			return alarms, res.Rounds, nil
		}
		pa, pr, err := countAlarms(switching.Algorithm{})
		if err != nil {
			return nil, fmt.Errorf("A1 n=%d protocol: %w", n, err)
		}
		na, nr, err := countAlarms(naiveSwitcher{})
		if err != nil {
			return nil, fmt.Errorf("A1 n=%d naive: %w", n, err)
		}
		t.Rows = append(t.Rows, []string{itoa(n), itoa(pa), itoa(pr), itoa(na), itoa(nr)})
	}
	return t, nil
}

// A2NCAEncoding contrasts the paper's Gilbert–Moore/heavy-path labels
// against the naive NCA encoding (the full (path head, position) list
// with fixed-width integers — O(log² n) bits): how many bits the
// weighted alphabetic coding actually saves.
func A2NCAEncoding(ns []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "A2 (ablation): NCA label encodings — alphabetic (paper) vs fixed-width naive",
		Header: []string{"n", "paper-bits", "paper/log2(n)", "naive-bits", "naive/log2²(n)", "saving"},
		Notes:  []string{"naive = explicit (head, position) pairs per heavy path, fixed-width: Θ(log² n) bits"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range ns {
		g := graph.RandomConnected(n, 0.1, rng)
		tr, err := trees.RandomSpanningTree(g, g.MinID(), rng)
		if err != nil {
			return nil, err
		}
		lb, err := nca.Build(tr)
		if err != nil {
			return nil, err
		}
		naive := naiveNCABits(tr)
		l2 := log2(n)
		t.Rows = append(t.Rows, []string{
			itoa(n),
			itoa(lb.MaxLabelBits()),
			ratio(float64(lb.MaxLabelBits()), l2),
			itoa(naive),
			ratio(float64(naive), l2*l2),
			ratio(float64(naive), float64(lb.MaxLabelBits())),
		})
	}
	return t, nil
}

// naiveNCABits sizes the straightforward NCA label: for each heavy path
// on the root-to-v walk, a (head ID, position) pair at fixed
// ceil(log2 n)-bit width, plus a length field.
func naiveNCABits(t *trees.Tree) int {
	d := trees.Decompose(t)
	w := runtime.BitsForValue(t.N())
	max := 0
	for _, v := range t.Nodes() {
		segments := d.LightDepth(v) + 1
		bits := w + segments*2*w
		if bits > max {
			max = bits
		}
	}
	return max
}

// A3Schedulers measures the always-on BFS under every daemon of the
// certification registry: the paper's bounds hold under the unfair
// adversary, hence under all of them; the table shows the spread.
func A3Schedulers(n int, seed int64) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("A3 (ablation): scheduler spread, always-on BFS, n=%d", n),
		Header: []string{"scheduler", "rounds", "moves", "silent", "exact-BFS"},
		Notes:  []string{"claim scope: correctness under the unfair scheduler implies all of these"},
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(n, 3.0/float64(n), rng)
	for _, s := range cert.Schedulers() {
		net, tr, err := routing.BringUp(g, routing.AlgoBFS, s.New(seed), 10_000_000, rand.New(rand.NewSource(seed)), nil)
		if err != nil {
			return nil, fmt.Errorf("A3 %s: %w", s.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			s.Name, itoa(net.Rounds()), itoa(net.Moves()), btoa(net.Silent()), btoa(trees.IsBFSTree(tr, g)),
		})
	}
	return t, nil
}

// A4Families runs all three tasks across the graph family zoo — the
// cross-topology robustness sweep.
func A4Families(seed int64) (*Table, error) {
	t := &Table{
		Title:  "A4: cross-family robustness (always-on BFS, n≈20 per family)",
		Header: []string{"family", "n", "m", "rounds", "moves", "silent", "exact-BFS"},
	}
	rng := rand.New(rand.NewSource(seed))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(20)},
		{"ring", graph.Ring(20)},
		{"star", graph.Star(20)},
		{"complete", graph.Complete(12)},
		{"grid", graph.Grid(4, 5)},
		{"caterpillar", graph.Caterpillar(7, 2)},
		{"lollipop", graph.Lollipop(6, 8)},
		{"random", graph.RandomConnected(20, 0.2, rng)},
		{"geometric", graph.RandomGeometric(20, 0.35, rng)},
		{"hamiltonian", graph.HamiltonianWheel(20, 10, rng)},
	}
	for _, f := range families {
		net, tr, err := routing.BringUp(f.g, routing.AlgoBFS, runtime.Central(), 10_000_000, rand.New(rand.NewSource(seed)), nil)
		if err != nil {
			return nil, fmt.Errorf("A4 %s: %w", f.name, err)
		}
		t.Rows = append(t.Rows, []string{
			f.name, itoa(f.g.N()), itoa(f.g.M()),
			itoa(net.Rounds()), itoa(net.Moves()), btoa(net.Silent()), btoa(trees.IsBFSTree(tr, f.g)),
		})
	}
	return t, nil
}
