package cluster

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/ops"
)

// FaultConfig parameterizes the adversarial transport: per-frame
// probabilities for the classic link fault classes. Zero value = a
// perfect network.
type FaultConfig struct {
	// Seed drives every fault decision; in lockstep mode the same seed
	// replays the identical fault schedule.
	Seed int64
	// Loss is the probability a frame silently disappears.
	Loss float64
	// Dup is the probability a frame is delivered twice (the second copy
	// goes through its own delay decision, so duplicates also reorder).
	Dup float64
	// Corrupt is the probability 1–3 bytes of the frame are flipped; the
	// receiver's frame checksum turns this into a drop.
	Corrupt float64
	// Delay is the probability a frame is held back; reordering emerges
	// from delayed frames overtaking or being overtaken.
	Delay float64
	// MaxDelayTicks bounds the lockstep hold-back (uniform 1..Max;
	// default 3).
	MaxDelayTicks int
	// MaxDelay bounds the free-running hold-back (default 20ms).
	MaxDelay time.Duration
}

func (c *FaultConfig) fill() {
	if c.MaxDelayTicks == 0 {
		c.MaxDelayTicks = 3
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 20 * time.Millisecond
	}
}

// FaultStats counts applied faults.
type FaultStats struct {
	Sent, Lost, Duplicated, Corrupted, Delayed int
}

// FaultTransport wraps another transport with seeded fault injection.
// Over a lockstep transport (one implementing Stepper) the fault
// decisions are taken at the barrier, senders visited in ascending node
// order and frames in send order, so the whole fault schedule is a
// deterministic function of the seed. Over an async transport (UDP)
// decisions are taken inline at Send under a mutex — faithful, but
// deterministic only as far as the network is.
type FaultTransport struct {
	inner   Transport
	stepper Stepper // nil in async mode
	cfg     FaultConfig

	mu      sync.Mutex
	rng     *rand.Rand
	enabled bool
	stats   FaultStats

	eps []*faultEndpoint // ascending id (lockstep iteration order)
	// delayed holds matured-later frames (lockstep mode).
	delayed []delayedFrame
	seq     int // tiebreak preserving decision order among equal due ticks

	// asyncHold counts frames parked in time.AfterFunc (async mode).
	asyncHold int
}

type delayedFrame struct {
	due  uint64
	seq  int
	ep   Endpoint // inner endpoint to deliver through
	to   graph.NodeID
	data []byte
}

type faultEndpoint struct {
	ft    *FaultTransport
	id    graph.NodeID
	inner Endpoint
	out   []sendReq // sender-owned tick buffer (lockstep mode)
}

// NewFaultTransport wraps inner with the given fault profile.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	cfg.fill()
	st, _ := inner.(Stepper)
	return &FaultTransport{
		inner:   inner,
		stepper: st,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		enabled: true,
	}
}

// SetEnabled toggles fault injection: campaigns disable it to measure
// the recovered service over a clean data path after certifying
// convergence under faults.
func (ft *FaultTransport) SetEnabled(on bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.enabled = on
}

// Stats returns the fault accounting so far.
func (ft *FaultTransport) Stats() FaultStats {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.stats
}

// RegisterMetrics exposes the fault accounting and forwards to the
// wrapped transport's own counters.
func (ft *FaultTransport) RegisterMetrics(reg *ops.Registry) {
	labels := ops.Labels{"transport": "fault"}
	stat := func(field func(FaultStats) int) func() float64 {
		return func() float64 { return float64(field(ft.Stats())) }
	}
	reg.CounterFunc("ss_transport_frames_offered_total", "Frames entering the fault pipeline.", labels,
		stat(func(s FaultStats) int { return s.Sent }))
	reg.CounterFunc("ss_transport_frames_lost_total", "Frames the adversary silently dropped.", labels,
		stat(func(s FaultStats) int { return s.Lost }))
	reg.CounterFunc("ss_transport_frames_duplicated_total", "Frames delivered twice.", labels,
		stat(func(s FaultStats) int { return s.Duplicated }))
	reg.CounterFunc("ss_transport_frames_corrupted_total", "Frames with flipped bytes (caught by the checksum downstream).", labels,
		stat(func(s FaultStats) int { return s.Corrupted }))
	reg.CounterFunc("ss_transport_frames_delayed_total", "Frames held back (reordering).", labels,
		stat(func(s FaultStats) int { return s.Delayed }))
	if m, ok := ft.inner.(interface{ RegisterMetrics(*ops.Registry) }); ok {
		m.RegisterMetrics(reg)
	}
}

// Open implements Transport.
func (ft *FaultTransport) Open(id graph.NodeID) (Endpoint, error) {
	inner, err := ft.inner.Open(id)
	if err != nil {
		return nil, err
	}
	ep := &faultEndpoint{ft: ft, id: id, inner: inner}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	i, found := slices.BinarySearchFunc(ft.eps, ep, func(a, b *faultEndpoint) int {
		return cmp.Compare(a.id, b.id)
	})
	if found {
		// Never insert a shadow endpoint: the stale entry's tick buffer
		// would still be visited at every barrier. (The inner transport
		// normally rejects the duplicate first; this guards against
		// wrappers that don't.)
		inner.Close()
		return nil, fmt.Errorf("cluster: node %d already attached", id)
	}
	ft.eps = slices.Insert(ft.eps, i, ep)
	return ep, nil
}

// Close implements Transport.
func (ft *FaultTransport) Close() error { return ft.inner.Close() }

// Evict implements the membership hook (see the evictor interface):
// flush the departing node's buffered sends straight to the inner
// transport — bypassing the fault pipeline, so the teardown consumes no
// rng draws and the survivors' fault schedule is untouched — drop the
// delayed frames it originated (they would otherwise Send through an
// endpoint the inner transport no longer steps, vanishing without being
// accounted), and forward the eviction down.
func (ft *FaultTransport) Evict(id graph.NodeID) {
	ft.mu.Lock()
	var inner Endpoint
	for i, ep := range ft.eps {
		if ep.id == id {
			inner = ep.inner
			for _, req := range ep.out {
				ep.inner.Send(req.to, req.data)
			}
			ep.out = nil
			ft.eps = slices.Delete(ft.eps, i, i+1)
			break
		}
	}
	if inner != nil {
		n := 0
		for _, df := range ft.delayed {
			if df.ep == inner {
				ft.stats.Lost++
				continue
			}
			ft.delayed[n] = df
			n++
		}
		ft.delayed = ft.delayed[:n]
	}
	ft.mu.Unlock()
	if ev, ok := ft.inner.(evictor); ok {
		ev.Evict(id)
	}
}

// Step implements Stepper: take the fault decision for every frame sent
// during the tick (deterministic order), deliver matured delayed
// frames, then let the inner transport deliver.
func (ft *FaultTransport) Step(tick uint64) {
	if ft.stepper == nil {
		panic("cluster: FaultTransport.Step over a non-lockstep inner transport")
	}
	ft.mu.Lock()
	for _, ep := range ft.eps {
		for _, req := range ep.out {
			ft.route(ep.inner, req, tick)
		}
		ep.out = ep.out[:0]
	}
	// Matured delayed frames, in (due, decision-order) order.
	slices.SortStableFunc(ft.delayed, func(a, b delayedFrame) int {
		if a.due != b.due {
			return cmp.Compare(a.due, b.due)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	n := 0
	for _, df := range ft.delayed {
		if df.due <= tick {
			df.ep.Send(df.to, df.data)
		} else {
			ft.delayed[n] = df
			n++
		}
	}
	ft.delayed = ft.delayed[:n]
	ft.mu.Unlock()
	ft.stepper.Step(tick)
}

// decide runs the fault pipeline for one frame: duplication first (each
// copy then fares independently), loss, byte corruption, and delay.
// Immediate deliveries go through send, held-back copies through hold —
// the only thing the lockstep and async paths differ in. Caller holds
// ft.mu (the rng and stats are shared).
func (ft *FaultTransport) decide(data []byte, send, hold func(data []byte)) {
	ft.stats.Sent++
	if !ft.enabled {
		send(data)
		return
	}
	copies := 1
	if ft.cfg.Dup > 0 && ft.rng.Float64() < ft.cfg.Dup {
		copies = 2
		ft.stats.Duplicated++
	}
	for c := 0; c < copies; c++ {
		if ft.cfg.Loss > 0 && ft.rng.Float64() < ft.cfg.Loss {
			ft.stats.Lost++
			continue
		}
		d := data
		if ft.cfg.Corrupt > 0 && ft.rng.Float64() < ft.cfg.Corrupt {
			d = corruptCopy(ft.rng, d)
			ft.stats.Corrupted++
		}
		if ft.cfg.Delay > 0 && ft.rng.Float64() < ft.cfg.Delay {
			ft.stats.Delayed++
			hold(d)
			continue
		}
		send(d)
	}
}

// route applies the fault pipeline to one frame at a barrier.
func (ft *FaultTransport) route(inner Endpoint, req sendReq, tick uint64) {
	ft.decide(req.data,
		func(d []byte) { inner.Send(req.to, d) },
		func(d []byte) {
			ft.seq++
			ft.delayed = append(ft.delayed, delayedFrame{
				due: tick + 1 + uint64(ft.rng.Intn(ft.cfg.MaxDelayTicks)),
				seq: ft.seq, ep: inner, to: req.to, data: d,
			})
		})
}

// corruptCopy flips 1–3 bytes of a copy of data (never the original:
// duplicates may alias the same backing array).
func corruptCopy(rng *rand.Rand, data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
	}
	return out
}

// InFlight implements Stepper.
func (ft *FaultTransport) InFlight() int {
	ft.mu.Lock()
	n := len(ft.delayed) + ft.asyncHold
	for _, ep := range ft.eps {
		n += len(ep.out)
	}
	ft.mu.Unlock()
	if ft.stepper != nil {
		n += ft.stepper.InFlight()
	}
	return n
}

// Send implements Endpoint. In lockstep mode frames are buffered for
// the barrier; in async mode the fault pipeline runs inline.
func (ep *faultEndpoint) Send(to graph.NodeID, frame []byte) error {
	ft := ep.ft
	if ft.stepper != nil {
		ep.out = append(ep.out, sendReq{to: to, data: frame})
		return nil
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	var sendErr error
	ft.decide(frame,
		func(d []byte) {
			if err := ep.inner.Send(to, d); err != nil && sendErr == nil {
				sendErr = err
			}
		},
		func(d []byte) {
			ft.asyncHold++
			delay := time.Duration(ft.rng.Int63n(int64(ft.cfg.MaxDelay)))
			time.AfterFunc(delay, func() {
				ep.inner.Send(to, d)
				ft.mu.Lock()
				ft.asyncHold--
				ft.mu.Unlock()
			})
		})
	return sendErr
}

// Broadcast implements Endpoint. The fault pipeline fates every
// destination's copy independently — exactly as the per-Send path did —
// so batching upstream does not weaken the adversary: one neighbor may
// lose the frame another receives twice. The deterministic lockstep
// decision order (senders ascending, frames in send order, destinations
// in neighbor order) is preserved by unrolling the batch here.
func (ep *faultEndpoint) Broadcast(dsts []graph.NodeID, frame []byte) error {
	ft := ep.ft
	if ft.stepper != nil {
		for _, to := range dsts {
			ep.out = append(ep.out, sendReq{to: to, data: frame})
		}
		return nil
	}
	var firstErr error
	for _, to := range dsts {
		if err := ep.Send(to, frame); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Drain implements Endpoint.
func (ep *faultEndpoint) Drain(into [][]byte) [][]byte { return ep.inner.Drain(into) }

// Notify implements Endpoint.
func (ep *faultEndpoint) Notify() <-chan struct{} { return ep.inner.Notify() }

// Wake implements Endpoint: frames land in the inner endpoint.
func (ep *faultEndpoint) Wake(fn func()) { ep.inner.Wake(fn) }

// Close implements Endpoint.
func (ep *faultEndpoint) Close() error { return ep.inner.Close() }
