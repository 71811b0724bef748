package mdst

import (
	"fmt"

	"silentspan/internal/core"
	"silentspan/internal/graph"
	"silentspan/internal/trees"
)

// Task packages the MDST application for the PLS-guided engines: the
// family is FR-trees, the potential is the nest-decreasing
//
//	φ(T) = (n·Δ_T + N_T) · (1 − 1_FR(T))
//
// of Section VIII, and improvements are the well-nested sequences built
// by the Fürer–Raghavachari scan (Algorithm 4 ≡ the Algorithm 3 loop).
type Task struct{}

var _ core.Task = Task{}

// Name implements core.Task.
func (Task) Name() string { return "mdst" }

// Value implements core.Task: φ(T) = (nΔ_T + N_T)(1 − 1_FR(T)).
func (Task) Value(g *graph.Graph, t *trees.Tree) (int, error) {
	fr, err := IsFRTree(g, t)
	if err != nil {
		return 0, err
	}
	if fr {
		return 0, nil
	}
	return potentialCore(g, t), nil
}

// MaxValue implements core.Task: Δ_T ≤ n−1 and N_T ≤ n.
func (Task) MaxValue(g *graph.Graph) int { return g.N()*g.N() + g.N() }

// Improve implements core.Task with one FR marking per step: run the
// scan, then label and search over its result. Label construction is
// the scan itself — each promotion is one cycle wave — plus the
// witness- and fragment-distance broadcasts. If a degree-K node is
// promoted, the step emits the well-nested improvement sequence that
// lowers its degree; discovery rounds are the scan's cycle waves plus
// one tree wave per emitted swap.
func (Task) Improve(g *graph.Graph, t *trees.Tree) (core.LabelInfo, []core.Swap, int, bool, error) {
	m, err := Mark(g, t)
	if err != nil {
		return core.LabelInfo{}, nil, 0, false, err
	}
	height := 0
	for _, d := range t.Depths() {
		if d > height {
			height = d
		}
	}
	wave := 2*height + 2
	info := core.LabelInfo{Rounds: (m.ScanSteps + 2) * wave}
	scanRounds := (m.ScanSteps + 1) * wave
	if m.Promoted == trees.None {
		a, err := FromMarking(g, t, m)
		if err != nil {
			return core.LabelInfo{}, nil, 0, false, err
		}
		info.MaxBits = a.MaxLabelBits(g.N())
		return info, nil, scanRounds, false, nil
	}
	// Not an FR-tree: labels exist but certify nothing; the scan rounds
	// are still charged.
	info.MaxBits = labelBitsBound(g)
	swaps, _, err := BuildNest(g, t, m)
	if err != nil {
		return info, nil, 0, false, fmt.Errorf("mdst: building improvement: %w", err)
	}
	return info, swaps, scanRounds + len(swaps)*wave, true, nil
}

func labelBitsBound(g *graph.Graph) int {
	return Label{
		K:           g.N() - 1,
		Frag:        graph.NodeID(g.N()),
		WitnessDist: g.N() - 1,
		FragDist:    g.N() - 1,
	}.EncodedBits(g.N())
}
