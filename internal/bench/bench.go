// Package bench implements the experiment harness regenerating every
// claim-level "figure" of the paper (see DESIGN.md §5): each E-function
// runs one experiment sweep and returns a printable table. cmd/ssbench
// prints them all; the repository-root benchmarks wrap them for
// `go test -bench`.
package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"silentspan/internal/bfs"
	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/mdst"
	"silentspan/internal/mst"
	"silentspan/internal/nca"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// Table is one experiment's result, printable as an aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func itoa(v int) string  { return fmt.Sprintf("%d", v) }
func btoa(b bool) string { return fmt.Sprintf("%v", b) }
func log2(n int) float64 { return math.Log2(float64(n)) }
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", a/b)
}

// E1Switch measures the loop-free edge switch (Fig. 1, Lemma 4.1,
// Section IV): rounds and moves per local switch on rings (worst-case
// cycle length), with the loop-freedom and malleability monitors armed —
// a monitor violation aborts the run, so completed rows certify zero
// alarms and a spanning tree after every step.
func E1Switch(ns []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "E1: loop-free malleable switch (Section IV, Fig. 1)",
		Header: []string{"n", "rounds/switch", "moves/switch", "alarms", "tree-every-step"},
		Notes:  []string{"claim: O(n) rounds per switch, zero verifier alarms, loop-free"},
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
		net, err := runtime.NewNetwork(g, switching.Algorithm{})
		if err != nil {
			return nil, err
		}
		if err := switching.InitFromTree(net, tr); err != nil {
			return nil, err
		}
		net.AddMonitor(switching.LoopFreeMonitor(switching.RegOf))
		net.AddMonitor(switching.MalleabilityMonitor(switching.RegOf))
		if err := switching.InjectSwitch(net, v, target, switching.RegOf); err != nil {
			return nil, err
		}
		res, err := net.Run(runtime.Synchronous(), 5_000_000)
		if err != nil {
			return nil, fmt.Errorf("E1 n=%d: %w", n, err)
		}
		if !res.Silent {
			return nil, fmt.Errorf("E1 n=%d: not silent", n)
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(res.Rounds), itoa(res.Moves), "0", "true",
		})
	}
	return t, nil
}

// E2NCA measures the NCA labeling (Section V, Lemma 5.1): maximum label
// bits against c·log2(n), construction rounds against O(n), and checks
// the label-only nca() and cycle-membership predicates against
// structural ground truth.
func E2NCA(ns []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "E2: NCA labeling (Section V, Lemma 5.1)",
		Header: []string{"n", "max-label-bits", "bits/log2(n)", "constr-rounds", "queries-ok", "verifier-ok"},
		Notes:  []string{"claim: O(log n)-bit labels, O(n)-round certified construction"},
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
		ok := true
		nodes := tr.Nodes()
		for q := 0; q < 200; q++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			m, err := nca.NCA(lb.Label(u), lb.Label(v))
			if err != nil {
				return nil, err
			}
			if got, found := lb.NodeOf(m); !found || got != tr.NCA(u, v) {
				ok = false
				break
			}
		}
		a := nca.FromLabeling(lb)
		verr := a.Verify(g)
		t.Rows = append(t.Rows, []string{
			itoa(n),
			itoa(lb.MaxLabelBits()),
			ratio(float64(lb.MaxLabelBits()), log2(n)),
			itoa(lb.ConstructionRounds()),
			btoa(ok),
			btoa(verr == nil),
		})
	}
	return t, nil
}

// E3BFS measures the always-on PLS-guided BFS (Section III example,
// Theorem 3.1): stabilization rounds and register bits from arbitrary
// initial configurations, exactness of the resulting distances, and the
// ad hoc substrate baseline for contrast.
func E3BFS(ns []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "E3: PLS-guided BFS (Section III, Theorem 3.1)",
		Header: []string{"n", "rounds", "moves", "reg-bits", "bits/log2(n)", "exact-BFS", "adhoc-rounds"},
		Notes:  []string{"claim: poly(n) rounds, O(log n)-bit registers, silent; ad hoc = plain substrate [25]-style"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomConnected(n, 2.5/float64(n), rng)
		net, tr, err := routing.BringUp(g, routing.AlgoBFS, runtime.Central(), 10_000_000, rng, nil)
		if err != nil {
			return nil, fmt.Errorf("E3 n=%d: %w", n, err)
		}
		// Ad hoc baseline: spanning substrate alone.
		netB, err := runtime.NewNetwork(g, spanningAlgorithm())
		if err != nil {
			return nil, err
		}
		netB.InitArbitrary(rand.New(rand.NewSource(seed + int64(n))))
		resB, err := netB.Run(runtime.Central(), 10_000_000)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(net.Rounds()), itoa(net.Moves()),
			itoa(net.MaxRegisterBits()),
			ratio(float64(net.MaxRegisterBits()), log2(n)),
			btoa(trees.IsBFSTree(tr, g)),
			itoa(resB.Rounds),
		})
	}
	return t, nil
}

// E4MST measures the MST construction (Section VI, Corollary 6.1, Fig.
// 2): exactness against Kruskal, Borůvka-trace depth k against
// ceil(log2 n), label bits against log²(n), accounted rounds, and the
// non-silent distributed Borůvka baseline.
func E4MST(ns []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "E4: silent self-stabilizing MST (Section VI, Cor. 6.1, Fig. 2)",
		Header: []string{"n", "rounds", "improvements", "label-bits", "bits/log2²(n)", "k", "ceil(log2 n)", "exact-MST", "boruvka-rounds", "silent"},
		Notes:  []string{"claim: poly(n) rounds, Θ(log² n)-bit labels (optimal), k ≤ ceil(log2 n), exact MST, silent"},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomConnected(n, 3.0/float64(n), rng)
		final, trace, err := core.RunDistributed(g, mst.Task{}, core.EngineOptions{Rng: rng})
		if err != nil {
			return nil, fmt.Errorf("E4 n=%d: %w", n, err)
		}
		exact, err := mst.IsMST(final, g)
		if err != nil {
			return nil, err
		}
		tr2, err := mst.ComputeTrace(g, final)
		if err != nil {
			return nil, err
		}
		base, err := mst.DistributedBoruvka(g, g.MinID())
		if err != nil {
			return nil, err
		}
		l2 := log2(n)
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(trace.Rounds), itoa(trace.Improvements),
			itoa(trace.MaxLabelBits),
			ratio(float64(trace.MaxLabelBits), l2*l2),
			itoa(tr2.K), itoa(int(math.Ceil(l2))),
			btoa(exact), itoa(base.Rounds), "true",
		})
	}
	return t, nil
}

// E5MDST measures the MDST construction (Section VIII, Cor. 8.1, Lemma
// 8.1): final degree against OPT+1 (brute force on small instances, the
// FR guarantee beyond), O(log n) label bits against the Ω(n log n)
// baseline of [16], and accounted rounds.
func E5MDST(ns []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "E5: silent self-stabilizing MDST on FR-trees (Section VIII, Cor. 8.1)",
		Header: []string{"n", "rounds", "deg(T)", "OPT", "deg<=OPT+1", "FR-tree", "label-bits", "bits/log2(n)", "baseline-bits", "shrink"},
		Notes: []string{
			"claim: degree ≤ OPT+1, O(log n)-bit registers vs Ω(n log n) for [16], poly rounds, silent",
			"OPT by brute force where tractable, else '-' (guarantee holds by Thm 2.2 of [33])",
		},
	}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomConnected(n, 3.0/float64(n), rng)
		final, trace, err := core.RunDistributed(g, mdst.Task{}, core.EngineOptions{Rng: rng})
		if err != nil {
			return nil, fmt.Errorf("E5 n=%d: %w", n, err)
		}
		fr, err := mdst.IsFRTree(g, final)
		if err != nil {
			return nil, err
		}
		optStr, okStr := "-", "-"
		if g.M() <= 24 {
			opt, err := mdst.OptimalDegree(g)
			if err == nil {
				optStr = itoa(opt)
				okStr = btoa(final.MaxDegree() <= opt+1)
			}
		}
		m, err := mdst.Mark(g, final)
		if err != nil {
			return nil, err
		}
		a, err := mdst.FromMarking(g, final, m)
		if err != nil {
			return nil, err
		}
		labelBits := a.MaxLabelBits(g.N())
		t0, err := trees.RandomSpanningTree(g, g.MinID(), rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		base, err := mdst.BigMemoryMDST(g, t0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(trace.Rounds), itoa(final.MaxDegree()),
			optStr, okStr, btoa(fr),
			itoa(labelBits),
			ratio(float64(labelBits), log2(n)),
			itoa(base.RegisterBits),
			ratio(float64(base.RegisterBits), float64(labelBits)),
		})
	}
	return t, nil
}

// E6Verification contrasts verification costs (Proposition 8.1): the
// FR-tree proof-labeling verifier runs in polynomial time while deciding
// near-MDST membership needs the NP-hard Δ_min, whose exhaustive check
// blows up exponentially with the edge count.
func E6Verification(ns []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "E6: verification cost, FR-PLS vs near-MDST (Proposition 8.1)",
		Header: []string{"n", "m", "pls-verify", "exhaustive-near-MDST", "blowup"},
		Notes:  []string{"claim: no poly-time PLS for near-MDST unless NP = co-NP; FR-trees verify in poly time"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range ns {
		g := graph.RandomConnected(n, 0.5, rng)
		if g.M() > 24 {
			continue
		}
		t0, err := trees.RandomSpanningTree(g, g.MinID(), rng)
		if err != nil {
			return nil, err
		}
		final, _, err := mdst.FurerRaghavachari(g, t0)
		if err != nil {
			return nil, err
		}
		m, err := mdst.Mark(g, final)
		if err != nil {
			return nil, err
		}
		a, err := mdst.FromMarking(g, final, m)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < 10; i++ {
			if err := a.Verify(g); err != nil {
				return nil, err
			}
		}
		plsTime := time.Since(start) / 10
		start = time.Now()
		opt, err := mdst.OptimalDegree(g)
		if err != nil {
			return nil, err
		}
		exhaustive := time.Since(start)
		_ = opt
		t.Rows = append(t.Rows, []string{
			itoa(g.N()), itoa(g.M()),
			plsTime.String(), exhaustive.String(),
			ratio(float64(exhaustive), float64(plsTime)),
		})
	}
	return t, nil
}

// E7FaultRecovery measures silent recovery (Section II-A): after
// stabilization, corrupt k registers and count re-stabilization rounds
// for the always-on BFS system.
func E7FaultRecovery(n int, faults []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("E7: transient-fault recovery, always-on BFS, n=%d", n),
		Header: []string{"corrupted-registers", "recovery-rounds", "recovery-moves", "legal-after"},
		Notes:  []string{"claim: from any configuration — in particular post-fault — the system re-stabilizes and is silent"},
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(n, 3.0/float64(n), rng)
	net, _, err := routing.BringUp(g, routing.AlgoBFS, runtime.Central(), 10_000_000, rng, nil)
	if err != nil {
		return nil, err
	}
	for _, k := range faults {
		runtime.Corrupt(net, k, rng)
		before := net.Rounds()
		beforeMoves := net.Moves()
		res, err := net.Run(runtime.Central(), 10_000_000)
		if err != nil {
			return nil, err
		}
		if !res.Silent {
			return nil, fmt.Errorf("E7: no recovery from %d faults", k)
		}
		tr, err := switching.ExtractTree(net, switching.RegOf)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(k),
			itoa(res.Rounds - before),
			itoa(res.Moves - beforeMoves),
			btoa(trees.IsBFSTree(tr, g)),
		})
	}
	return t, nil
}

// E8Potential records the potential trajectories of the three tasks
// (Lemma 3.1 / Lemma 7.1): strict decrease per improvement and iteration
// counts within φ_max.
func E8Potential(n int, seed int64) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("E8: potential monotonicity and iteration bounds, n=%d", n),
		Header: []string{"task", "φ(start)", "improvements", "φ_max-bound", "strictly-decreasing", "φ(end)"},
		Notes:  []string{"claim: each improvement strictly lowers φ; #improvements ≤ φ_max"},
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(n, 3.5/float64(n), rng)
	tasks := []core.Task{bfs.Task{}, mst.Task{}, mdst.Task{}}
	for _, task := range tasks {
		t0, err := trees.RandomSpanningTree(g, g.MinID(), rng)
		if err != nil {
			return nil, err
		}
		final, trace, err := core.RunSequential(g, t0, task)
		if err != nil {
			return nil, fmt.Errorf("E8 %s: %w", task.Name(), err)
		}
		_ = final
		mono := true
		for i := 1; i < len(trace.Potentials); i++ {
			if trace.Potentials[i] >= trace.Potentials[i-1] {
				mono = false
			}
		}
		start := 0
		if len(trace.Potentials) > 0 {
			start = trace.Potentials[0]
		}
		t.Rows = append(t.Rows, []string{
			task.Name(), itoa(start), itoa(trace.Improvements),
			itoa(task.MaxValue(g)), btoa(mono),
			itoa(trace.Potentials[len(trace.Potentials)-1]),
		})
	}
	return t, nil
}

// spanningAlgorithm avoids an import cycle with internal/spanning by
// using the switching substrate as the ad hoc baseline would: plain tree
// construction with no repair rule. The plain substrate stabilizes to a
// BFS-shaped tree of the minimum-ID root without the PLS-guided layer.
func spanningAlgorithm() runtime.Algorithm { return plainSubstrate{} }

type plainSubstrate struct{}

func (plainSubstrate) Name() string { return "adhoc-substrate" }

func (plainSubstrate) Step(v runtime.View) runtime.State {
	s, ok := switching.RegOf(v.Self)
	if !ok {
		return switching.SelfRoot(v.ID)
	}
	return switching.StepReg(s, v, switching.RegOf)
}

func (plainSubstrate) ArbitraryState(rng *rand.Rand, v runtime.View) runtime.State {
	return switching.Algorithm{}.ArbitraryState(rng, v)
}
