package routing

import (
	"fmt"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
)

// Live is the live-router rig of a serving episode: a Router kept
// current over the registers of a runtime.Network while faults and
// churn move them. It owns the network's LiveLabeler and the state and
// topology listeners feeding it, so every register write and every
// structural mutation — injected or repaired — is folded in
// incrementally (O(affected subtree), never an O(n) rebuild), and what
// the router forwards over is exactly what the registers currently
// support, decayed or healed.
type Live struct {
	net    *runtime.Network
	lb     *LiveLabeler
	router *Router
	writes int
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
		lv.writes++
		lv.lb.SetParent(v, ParentOf(new))
	})
	net.AddTopologyListener(lv.lb.ApplyTopo)
	lv.router = NewRouter(g, lv.lb.Labeling(), Options{})
	return lv
}

// Router returns the rig's router. Call Sync before forwarding over it
// once the network has moved.
func (lv *Live) Router() *Router { return lv.router }

// Labeling returns the incrementally maintained labeling.
func (lv *Live) Labeling() *Labeling { return lv.lb.Labeling() }

// Writes counts the register writes observed since the rig attached —
// the topology-change notifications a serving layer subscribes to.
// Episodes report the difference across their repair phase, so the
// injection's own writes do not count as repair.
func (lv *Live) Writes() int { return lv.writes }

// Sync republishes the labeling to the router, re-aligning it with the
// slot space after node churn.
func (lv *Live) Sync() { lv.router.SetLabeling(lv.lb.Labeling()) }

// Window is one repair window followed by one routing window: up to
// moves steps of sched, then every packet of flight advances up to steps
// hops over whatever labeling the registers now support.
func (lv *Live) Window(sched runtime.Scheduler, moves, steps int, flight *Flight) error {
	if _, err := lv.net.Run(sched, lv.net.Moves()+moves); err != nil {
		return err
	}
	lv.Sync()
	flight.Advance(lv.router, steps)
	return nil
}

// Reconverge interleaves windows until the network is silent again or
// maxWindows have run, and returns how many it took; the caller checks
// net.Silent() for which of the two ended it. The router is current on
// return, zero windows included.
func (lv *Live) Reconverge(sched runtime.Scheduler, movesPerWindow, stepsPerWindow, maxWindows int, flight *Flight) (int, error) {
	lv.Sync()
	w := 0
	for ; w < maxWindows && !lv.net.Silent(); w++ {
		if err := lv.Window(sched, movesPerWindow, stepsPerWindow, flight); err != nil {
			return w + 1, fmt.Errorf("window %d: %w", w, err)
		}
	}
	return w, nil
}
