package routing

import (
	"fmt"
	"math/rand"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/trees"
)

// Live is the live-router rig of a serving episode: a Router kept
// current over the registers of a runtime.Network while faults and
// churn move them. It owns the network's LiveLabeler and the state
// listener feeding it, so every register write — injected or repaired —
// is folded in incrementally (O(affected subtree)), and every
// structural mutation is one rebuild the labeler detects by the graph's
// epoch. What the router forwards over is exactly what the registers
// currently support, decayed or healed.
type Live struct {
	net    *runtime.Network
	lb     *LiveLabeler
	router *Router
}

// NewLive attaches a rig to net, reading whatever the registers hold
// right now (a silent tree or a corrupted one) as the starting labeling.
func NewLive(net *runtime.Network) *Live {
	g := net.Graph()
	parents := make([]graph.NodeID, net.Dense().Slots())
	for i := range parents {
		// Vacated slots read nil registers and come out NoParent.
		parents[i] = ParentOf(net.StateAt(i))
	}
	lv := &Live{net: net, lb: NewLiveLabeler(g, parents)}
	net.AddStateListener(func(v graph.NodeID, old, new runtime.State) {
		lv.lb.SetParent(v, ParentOf(new))
	})
	lv.router = NewRouter(g, lv.lb.Labeling(), Options{})
	return lv
}

// Router returns the rig's router. Call Sync before forwarding over it
// once the network has moved.
func (lv *Live) Router() *Router { return lv.router }

// Labeling returns the incrementally maintained labeling.
func (lv *Live) Labeling() *Labeling { return lv.lb.Labeling() }

// Sync republishes the labeling to the router, re-aligning it with the
// slot space after topology churn.
func (lv *Live) Sync() { lv.router.SetLabeling(lv.lb.Labeling()) }

// windowSteps is each in-flight packet's hop budget per routing window,
// and maxWindows bounds one reconvergence.
const (
	windowSteps = 2
	maxWindows  = 100_000
)

// Window is one repair window followed by one routing window: up to
// moves steps of sched, then every packet of flight advances up to
// windowSteps hops over whatever labeling the registers now support.
func (lv *Live) Window(sched runtime.Scheduler, moves int, flight *Flight) error {
	if _, err := lv.net.Run(sched, lv.net.Moves()+moves); err != nil {
		return err
	}
	lv.Sync()
	flight.Advance(lv.router, windowSteps)
	return nil
}

// Reconverge interleaves windows until the network is silent again or
// maxWindows have run, and returns how many it took; the caller checks
// net.Silent() for which of the two ended it. The router is current on
// return, zero windows included.
func (lv *Live) Reconverge(sched runtime.Scheduler, movesPerWindow int, flight *Flight) (int, error) {
	lv.Sync()
	w := 0
	for ; w < maxWindows && !lv.net.Silent(); w++ {
		if err := lv.Window(sched, movesPerWindow, flight); err != nil {
			return w + 1, fmt.Errorf("window %d: %w", w, err)
		}
	}
	return w, nil
}

// Recovery is what Burst measured: the repair's windows, moves and
// rounds; then, as Settle measures them, the repaired tree, the
// cohort's fate and the fresh batch. On error it holds what was
// measured up to the failure.
type Recovery struct {
	Windows, Moves, Rounds int
	Tree                   *trees.Tree
	Cohort                 InFlightStats
	Post                   Stats
}

// Burst is one fault episode under live traffic: launch a cohort of
// packets between uniform pairs drawn from rng, let fault hit the
// network, reconverge under sched with movesPerWindow-move repair
// windows interleaved with routing windows over the decaying labeling,
// then Settle.
func (lv *Live) Burst(a Algo, sched runtime.Scheduler, rng *rand.Rand, cohort, movesPerWindow, batch int, fault func() error) (Recovery, error) {
	flight := NewFlight(UniformPairs(lv.net.Graph().Nodes(), cohort, rng))
	if err := fault(); err != nil {
		return Recovery{Cohort: flight.Stats()}, err
	}
	moves, rounds := lv.net.Moves(), lv.net.Rounds()
	w, err := lv.Reconverge(sched, movesPerWindow, flight)
	if err == nil && !lv.net.Silent() {
		err = fmt.Errorf("did not re-stabilize within %d windows", maxWindows)
	}
	r := Recovery{Cohort: flight.Stats()}
	if err == nil {
		r, err = lv.Settle(a, rng, flight, batch)
	}
	r.Windows, r.Moves, r.Rounds = w, lv.net.Moves()-moves, lv.net.Rounds()-rounds
	return r, err
}

// Settle closes an episode on a network that is silent again: check the
// configuration is terminal and closed, extract and validate the
// repaired tree, republish the labeling and check it is complete, flush
// the cohort over it and check every packet is accounted delivered or
// dropped, and serve a fresh batch of uniform pairs drawn from rng. It
// fills Tree, Cohort and Post.
func (lv *Live) Settle(a Algo, rng *rand.Rand, flight *Flight, batch int) (r Recovery, err error) {
	r.Cohort = flight.Stats()
	if err = runtime.CheckSilentStable(lv.net); err != nil {
		return r, err
	}
	if r.Tree, err = a.ExtractTree(lv.net); err != nil {
		return r, fmt.Errorf("repaired configuration: %w", err)
	}
	lv.Sync()
	if lab := lv.Labeling(); !lab.Complete() {
		return r, fmt.Errorf("labeling incomplete after re-stabilization: %d labeled", lab.Covered())
	}
	flight.Flush(lv.router)
	r.Cohort = flight.Stats()
	if c := r.Cohort; c.Delivered()+c.Dropped != c.Sent {
		return r, fmt.Errorf("cohort unaccounted: %d delivered + %d dropped of %d", c.Delivered(), c.Dropped, c.Sent)
	}
	r.Post, err = Drive(lv.router, UniformPairs(lv.net.Graph().Nodes(), batch, rng), DriveOptions{})
	return r, err
}
