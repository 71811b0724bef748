package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"silentspan/internal/graph"
	"silentspan/internal/ops"
)

// Transport wires a cluster together: one Endpoint per node, opened
// before the cluster starts. Implementations decide what a frame ride
// looks like — an in-process queue (ChanTransport, deterministic), a
// real UDP socket (UDPTransport), or a fault-injecting wrapper around
// either (FaultTransport).
type Transport interface {
	// Open attaches node id and returns its endpoint. Every node is
	// opened before the first frame is sent.
	Open(id graph.NodeID) (Endpoint, error)
	// Close releases all endpoints.
	Close() error
}

// Endpoint is one node's attachment to the transport.
type Endpoint interface {
	// Send queues a frame to node `to`, best-effort: the frame may be
	// dropped, duplicated, delayed, or corrupted in transit depending on
	// the transport. The slice is retained; the caller must not mutate
	// it after Send.
	Send(to graph.NodeID, frame []byte) error
	// Broadcast queues one frame to every destination — a node's
	// per-tick fan-out coalesced into one transport operation instead of
	// len(dsts) bookkeeping rounds. Both slices are retained; the caller
	// must not mutate either after Broadcast. Fault wrappers still fate
	// each destination's copy independently.
	Broadcast(dsts []graph.NodeID, frame []byte) error
	// Drain appends the frames delivered since the last call to `into`
	// and returns it.
	Drain(into [][]byte) [][]byte
	// Notify returns a channel signaled after new frames arrive, for
	// free-running clusters; lockstep-only transports return nil (their
	// deliveries happen at tick barriers).
	Notify() <-chan struct{}
	// Close detaches the endpoint.
	Close() error
}

// Stepper is the lockstep delivery hook: transports that implement it
// buffer Sends during a tick and deliver them at the barrier, in
// deterministic order — the property the seeded-determinism and
// certification campaigns build on. Step is called by the cluster
// coordinator between ticks, with no node round running.
type Stepper interface {
	// Step delivers everything sent during the tick that just ended.
	Step(tick uint64)
	// InFlight reports frames accepted but not yet delivered (delayed
	// frames held by a fault wrapper; zero right after Step otherwise).
	InFlight() int
}

// ChanTransport is the deterministic in-process transport: frames sent
// during a tick are buffered in sender-owned queues and moved to the
// recipients' inboxes at the barrier, senders visited in ascending node
// order. It is lockstep-only (Notify returns nil) and entirely
// lock-free during ticks: each queue is touched only by the worker
// running its node's round, and the coordinator's Step runs between
// rounds, after every worker is done.
type ChanTransport struct {
	mu     sync.Mutex // guards Open bookkeeping only
	eps    map[graph.NodeID]*chanEndpoint
	sorted []*chanEndpoint
	// dropped counts frames addressed to nodes that were never opened;
	// delivered counts frames moved into inboxes, deliveredBytes their
	// bytes. Atomic so a metrics scrape can read them while Step runs.
	dropped        atomic.Int64
	delivered      atomic.Int64
	deliveredBytes atomic.Int64
}

// RegisterMetrics exposes the transport's delivery counters.
func (tr *ChanTransport) RegisterMetrics(reg *ops.Registry) {
	labels := ops.Labels{"transport": "chan"}
	reg.CounterFunc("ss_transport_frames_delivered_total", "Frames moved into recipient inboxes.", labels,
		func() float64 { return float64(tr.delivered.Load()) })
	reg.CounterFunc("ss_transport_delivered_bytes_total", "Frame bytes moved into recipient inboxes.", labels,
		func() float64 { return float64(tr.deliveredBytes.Load()) })
	reg.CounterFunc("ss_transport_frames_dropped_total", "Frames addressed to unopened nodes.", labels,
		func() float64 { return float64(tr.dropped.Load()) })
}

// NewChanTransport returns an empty in-process transport.
func NewChanTransport() *ChanTransport {
	return &ChanTransport{eps: make(map[graph.NodeID]*chanEndpoint)}
}

type chanEndpoint struct {
	tr *ChanTransport
	id graph.NodeID
	// out is the sender-owned tick buffer; in is the inbox, filled at
	// barriers and drained by the owning node during its tick.
	out []sendReq
	in  [][]byte
}

type sendReq struct {
	to graph.NodeID
	// dsts, when non-nil, makes this a batched fan-out entry: one frame
	// to every destination, `to` unused. The slice is the sender's
	// neighbor list, shared and read-only.
	dsts []graph.NodeID
	data []byte
}

// fanout returns the number of frames this entry carries.
func (r sendReq) fanout() int {
	if r.dsts != nil {
		return len(r.dsts)
	}
	return 1
}

// Open implements Transport.
func (tr *ChanTransport) Open(id graph.NodeID) (Endpoint, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, ok := tr.eps[id]; ok {
		return nil, fmt.Errorf("cluster: node %d already attached", id)
	}
	ep := &chanEndpoint{tr: tr, id: id}
	tr.eps[id] = ep
	i, _ := slices.BinarySearchFunc(tr.sorted, ep, func(a, b *chanEndpoint) int {
		return cmp.Compare(a.id, b.id)
	})
	tr.sorted = slices.Insert(tr.sorted, i, ep)
	return ep, nil
}

// Close implements Transport.
func (tr *ChanTransport) Close() error { return nil }

// Evict implements the membership hook (see the evictor interface):
// flush the departing node's buffered sends into the survivors' inboxes
// — its goodbye broadcast must not die in the tick buffer Step would
// never visit again — then drop it from the delivery directory so a
// rejoining incarnation of the id can attach fresh instead of failing
// Open with "already attached". Called by the cluster coordinator
// between ticks, so touching sender-owned buffers is safe.
func (tr *ChanTransport) Evict(id graph.NodeID) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ep, ok := tr.eps[id]
	if !ok {
		return
	}
	var moved deliveryTally
	tr.flush(ep, &moved)
	tr.account(moved)
	ep.out = nil
	delete(tr.eps, id)
	if i, found := slices.BinarySearchFunc(tr.sorted, ep, func(a, b *chanEndpoint) int {
		return cmp.Compare(a.id, b.id)
	}); found {
		tr.sorted = slices.Delete(tr.sorted, i, i+1)
	}
}

// Step implements Stepper: move every tick-buffered frame into its
// recipient's inbox, senders in ascending node order.
func (tr *ChanTransport) Step(uint64) {
	var moved deliveryTally
	for _, ep := range tr.sorted {
		tr.flush(ep, &moved)
	}
	tr.account(moved)
}

// deliveryTally counts what one barrier moved. Step is the part of a
// tick no worker can share, so the per-frame work there is kept to the
// inbox append: the shared counters take one atomic add per barrier, not
// two per frame (they are read between ticks, after Step returned).
type deliveryTally struct{ frames, bytes, dropped int64 }

func (tr *ChanTransport) account(t deliveryTally) {
	tr.delivered.Add(t.frames)
	tr.deliveredBytes.Add(t.bytes)
	tr.dropped.Add(t.dropped)
}

// flush empties ep's tick buffer into the recipients' inboxes.
func (tr *ChanTransport) flush(ep *chanEndpoint, t *deliveryTally) {
	for _, req := range ep.out {
		if req.dsts != nil {
			for _, to := range req.dsts {
				tr.deliverOne(to, req.data, t)
			}
			continue
		}
		tr.deliverOne(req.to, req.data, t)
	}
	ep.out = ep.out[:0]
}

func (tr *ChanTransport) deliverOne(to graph.NodeID, data []byte, t *deliveryTally) {
	dst, ok := tr.eps[to]
	if !ok {
		t.dropped++
		return
	}
	dst.in = append(dst.in, data)
	t.frames++
	t.bytes += int64(len(data))
}

// InFlight implements Stepper.
func (tr *ChanTransport) InFlight() int {
	n := 0
	for _, ep := range tr.sorted {
		for _, req := range ep.out {
			n += req.fanout()
		}
	}
	return n
}

// Delivered returns the total frames delivered so far.
func (tr *ChanTransport) Delivered() int { return int(tr.delivered.Load()) }

// Send implements Endpoint (sender-owned buffer; no locking by design —
// see the type comment).
func (ep *chanEndpoint) Send(to graph.NodeID, frame []byte) error {
	ep.out = append(ep.out, sendReq{to: to, data: frame})
	return nil
}

// Broadcast implements Endpoint: the whole fan-out is one buffered
// entry, unpacked at the barrier.
func (ep *chanEndpoint) Broadcast(dsts []graph.NodeID, frame []byte) error {
	ep.out = append(ep.out, sendReq{dsts: dsts, data: frame})
	return nil
}

// Drain implements Endpoint.
func (ep *chanEndpoint) Drain(into [][]byte) [][]byte {
	into = append(into, ep.in...)
	ep.in = ep.in[:0]
	return into
}

// Notify implements Endpoint: nil — this transport is lockstep-only.
func (ep *chanEndpoint) Notify() <-chan struct{} { return nil }

// Close implements Endpoint.
func (ep *chanEndpoint) Close() error { return nil }
