package cert

import (
	"fmt"
	"math/rand"
	"slices"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/trees"
)

// ExhaustiveConfig parameterizes the model checker. Zero values take
// the documented defaults.
type ExhaustiveConfig struct {
	// MaxN: enumerate every connected graph (up to isomorphism) on
	// 1..MaxN nodes (default 5; the full certification run uses 6).
	MaxN int
	// Samples: arbitrary initial configurations drawn per
	// (graph, algorithm, scheduler) for the always-on algorithms
	// (default 3).
	Samples int
	// EngineSamples: seeds per (graph, scheduler) for the engine-driven
	// MST/MDST runs (default 1 — each run is itself a full multi-phase
	// execution).
	EngineSamples int
	// ExhaustiveInitMaxN: up to this n (default 3), the spanning
	// substrate is additionally driven from *every* initial
	// configuration of a covering state space — roots in 1..n+1 (one
	// ghost identity class), parents over all neighbors and ⊥, distances
	// in 0..n — under the deterministic daemons. This is the literal
	// model-checking slice: no sampling gap at all.
	ExhaustiveInitMaxN int
	// MaxMoves caps each run; exceeding it is a convergence
	// counterexample (default 200000).
	MaxMoves int
	// Seed drives all sampling.
	Seed int64
	// Algos restricts the algorithm set (default all five).
	Algos []routing.Algo
	// SkipFamilies drops the named pathological families.
	SkipFamilies bool
	// MaxCounterexamples stops the hunt after this many findings
	// (default 20).
	MaxCounterexamples int
}

func (c *ExhaustiveConfig) fill() {
	if c.MaxN == 0 {
		c.MaxN = 5
	}
	if c.Samples == 0 {
		c.Samples = 3
	}
	if c.EngineSamples == 0 {
		c.EngineSamples = 1
	}
	if c.ExhaustiveInitMaxN == 0 {
		c.ExhaustiveInitMaxN = 3
	}
	if c.MaxMoves == 0 {
		c.MaxMoves = 200_000
	}
	if len(c.Algos) == 0 {
		c.Algos = routing.AllAlgos()
	}
	if c.MaxCounterexamples == 0 {
		c.MaxCounterexamples = 20
	}
}

// ExhaustiveReport summarizes a model-checking sweep.
type ExhaustiveReport struct {
	Config          ExhaustiveConfig     `json:"config"`
	Graphs          int                  `json:"graphs"`
	Runs            int                  `json:"runs"`
	ExhaustiveInits int                  `json:"exhaustive_inits"`
	Worst           map[string]WorstCase `json:"worst"`
	Ledger
}

// RunExhaustive executes the model-checking sweep. logf (optional)
// receives one progress line per graph batch.
func RunExhaustive(cfg ExhaustiveConfig, logf func(format string, args ...any)) (*ExhaustiveReport, error) {
	cfg.fill()
	rep := &ExhaustiveReport{Config: cfg, Worst: make(map[string]WorstCase), Ledger: newLedger(cfg.MaxCounterexamples, logf)}

	var instances []NamedGraph
	for n := 1; n <= cfg.MaxN; n++ {
		batch := EnumerateConnected(n)
		rep.logf("enumerated %d connected graphs on %d nodes", len(batch), n)
		instances = append(instances, batch...)
	}
	if !cfg.SkipFamilies {
		instances = append(instances, PathologicalFamilies()...)
	}
	rep.Graphs = len(instances)

	for gi, ng := range instances {
		for _, a := range cfg.Algos {
			// An always-on algorithm runs on one network per graph, re-armed
			// from a sampled arbitrary configuration per run; an engine run
			// is itself a full multi-phase execution from its own seed.
			alg, kind, samples := a.Algorithm(), "sampled", cfg.Samples
			var net *runtime.Network
			if alg == nil {
				kind, samples = "engine", cfg.EngineSamples
			} else {
				var err error
				if net, err = runtime.NewNetwork(ng.G, alg); err != nil {
					return rep, err
				}
			}
			for _, spec := range Schedulers() {
				for s := 0; s < samples; s++ {
					seed := cfg.Seed + int64(gi*1000+s)
					rep.Runs++
					var (
						stats RunStats
						err   error
					)
					if alg == nil {
						stats, err = certifyEngine(a, ng.G, spec, seed, cfg.MaxMoves)
					} else {
						net.InitArbitrary(rand.New(rand.NewSource(seed)))
						stats, err = certifyDirect(a, ng.G, net, spec.New(seed), cfg.MaxMoves)
					}
					if err == nil {
						record(rep.Worst, a, stats, ng.Name, spec.Name)
					} else if rep.falsified(ng, a, spec.Name, fmt.Sprintf("%s seed=%d", kind, seed), err) {
						return rep, nil
					}
				}
			}
		}
		// Exhaustive initial-state slice: spanning substrate, every
		// configuration of the covering state space, deterministic daemons.
		if n := ng.G.N(); n <= cfg.ExhaustiveInitMaxN && n >= 2 && slices.Contains(cfg.Algos, routing.AlgoSpanning) {
			count, err := exhaustiveSpanningInits(ng, rep, cfg.MaxMoves)
			if err != nil {
				return rep, err
			}
			rep.ExhaustiveInits += count
			if rep.full() {
				return rep, nil
			}
		}
		rep.progress(gi, len(instances), 50, "checked %d/%d graphs, %d runs, %d exhaustive inits, %d counterexamples",
			gi+1, len(instances), rep.Runs, rep.ExhaustiveInits, len(rep.Counterexamples))
	}
	return rep, nil
}

// deterministicSchedulers is the daemon subset used for the exhaustive
// initial-state slice: with no rng involved anywhere, every one of
// these runs is exactly reproducible from the configuration alone.
func deterministicSchedulers() []SchedulerSpec {
	var out []SchedulerSpec
	for _, s := range Schedulers() {
		switch s.Name {
		case "central", "synchronous", "adversarial-unfair", "greedy-stretch":
			out = append(out, s)
		}
	}
	return out
}

// exhaustiveSpanningInits drives the spanning substrate from every
// configuration of the covering state space on ng, under every
// deterministic daemon. Returns the number of initial configurations.
func exhaustiveSpanningInits(ng NamedGraph, rep *ExhaustiveReport, maxMoves int) (int, error) {
	g := ng.G
	n := g.N()
	nodes := g.Nodes()
	// Per-node candidate states.
	states := make([][]spanning.State, len(nodes))
	for i, v := range nodes {
		var cand []spanning.State
		parents := append([]graph.NodeID{trees.None}, g.Neighbors(v)...)
		for root := 1; root <= n+1; root++ {
			for _, p := range parents {
				for dist := 0; dist <= n; dist++ {
					cand = append(cand, spanning.State{Root: graph.NodeID(root), Parent: p, Dist: dist})
				}
			}
		}
		states[i] = cand
	}
	net, err := runtime.NewNetwork(g, spanning.Algorithm{})
	if err != nil {
		return 0, err
	}
	scheds := deterministicSchedulers()
	idx := make([]int, len(nodes))
	count := 0
	for {
		count++
		for _, spec := range scheds {
			for i, v := range nodes {
				net.SetState(v, states[i][idx[i]])
			}
			rep.Runs++
			stats, err := certifyDirect(routing.AlgoSpanning, g, net, spec.New(0), maxMoves)
			if err == nil {
				record(rep.Worst, routing.AlgoSpanning, stats, ng.Name, spec.Name)
			} else if rep.falsified(ng, routing.AlgoSpanning, spec.Name, describeInit(nodes, states, idx), err) {
				return count, nil
			}
		}
		// Odometer.
		k := 0
		for k < len(idx) {
			idx[k]++
			if idx[k] < len(states[k]) {
				break
			}
			idx[k] = 0
			k++
		}
		if k == len(idx) {
			return count, nil
		}
	}
}

func describeInit(nodes []graph.NodeID, states [][]spanning.State, idx []int) string {
	out := "exhaustive"
	for i, v := range nodes {
		s := states[i][idx[i]]
		out += fmt.Sprintf(" %d:(r%d,p%d,d%d)", v, s.Root, s.Parent, s.Dist)
	}
	return out
}
