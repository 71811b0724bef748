package cluster

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"silentspan/internal/graph"
	"silentspan/internal/ops"
)

// UDPTransport carries frames over real loopback UDP sockets: each
// endpoint binds its own datagram socket, a reader goroutine feeds the
// inbox, and sends resolve the destination's bound address through a
// shared directory. UDP already provides the full adversarial fault
// menu in the wild (drop, duplicate, reorder); FaultTransport can wrap
// this transport to force those faults deterministically on loopback,
// where the kernel is usually too polite to inject them.
//
// The transport is async-only: endpoints signal arrivals and have no
// lockstep Step, so clusters run it with Serve.
type UDPTransport struct {
	mu    sync.Mutex
	addrs map[graph.NodeID]*net.UDPAddr
	eps   []*udpEndpoint

	datagramsSent atomic.Int64
	datagramsRecv atomic.Int64
	bytesSent     atomic.Int64
	bytesRecv     atomic.Int64
	sendErrors    atomic.Int64
}

// RegisterMetrics exposes the socket-level counters.
func (tr *UDPTransport) RegisterMetrics(reg *ops.Registry) {
	labels := ops.Labels{"transport": "udp"}
	reg.CounterFunc("ss_transport_datagrams_sent_total", "Datagrams written to loopback sockets.", labels,
		func() float64 { return float64(tr.datagramsSent.Load()) })
	reg.CounterFunc("ss_transport_datagrams_received_total", "Datagrams read from loopback sockets.", labels,
		func() float64 { return float64(tr.datagramsRecv.Load()) })
	reg.CounterFunc("ss_transport_sent_bytes_total", "Bytes written to loopback sockets.", labels,
		func() float64 { return float64(tr.bytesSent.Load()) })
	reg.CounterFunc("ss_transport_received_bytes_total", "Bytes read from loopback sockets.", labels,
		func() float64 { return float64(tr.bytesRecv.Load()) })
	reg.CounterFunc("ss_transport_send_errors_total", "Socket write failures.", labels,
		func() float64 { return float64(tr.sendErrors.Load()) })
}

// NewUDPTransport returns an empty UDP transport on loopback.
func NewUDPTransport() *UDPTransport {
	return &UDPTransport{addrs: make(map[graph.NodeID]*net.UDPAddr)}
}

type udpEndpoint struct {
	tr   *UDPTransport
	id   graph.NodeID
	conn *net.UDPConn
	// bcastAddrs is Broadcast's reusable address scratch (only the
	// owning node's goroutine broadcasts).
	bcastAddrs []*net.UDPAddr

	mu     sync.Mutex
	in     [][]byte
	notify chan struct{}
	wake   func() // arrival signal: signals notify until Wake replaces it
	closed bool
}

// maxFrame bounds one datagram read. Register frames are tens of
// bytes; anything larger is foreign traffic and will fail to decode.
const maxFrame = 64 * 1024

// Open implements Transport: bind a loopback socket for id and start
// its reader.
func (tr *UDPTransport) Open(id graph.NodeID) (Endpoint, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		return nil, fmt.Errorf("cluster: udp bind for node %d: %w", id, err)
	}
	ep := &udpEndpoint{tr: tr, id: id, conn: conn, notify: make(chan struct{}, 1)}
	ep.wake = func() {
		select {
		case ep.notify <- struct{}{}:
		default:
		}
	}
	tr.mu.Lock()
	if _, dup := tr.addrs[id]; dup {
		tr.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("cluster: node %d already attached", id)
	}
	tr.addrs[id] = conn.LocalAddr().(*net.UDPAddr)
	tr.eps = append(tr.eps, ep)
	tr.mu.Unlock()
	go ep.readLoop()
	return ep, nil
}

// Evict implements the membership hook (see the evictor interface):
// drop the departing node's id→addr directory entry and endpoint
// registration. Without this a rejoining incarnation would fail Open
// ("already attached") and, worse, survivors' directory lookups would
// keep resolving the id to the dead incarnation's socket, silently
// black-holing every frame sent to the rejoiner.
func (tr *UDPTransport) Evict(id graph.NodeID) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	delete(tr.addrs, id)
	for i, ep := range tr.eps {
		if ep.id == id {
			tr.eps = slices.Delete(tr.eps, i, i+1)
			break
		}
	}
}

// Close implements Transport.
func (tr *UDPTransport) Close() error {
	tr.mu.Lock()
	eps := tr.eps
	tr.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

func (ep *udpEndpoint) readLoop() {
	buf := make([]byte, maxFrame)
	for {
		n, _, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		frame := append([]byte(nil), buf[:n]...)
		ep.tr.datagramsRecv.Add(1)
		ep.tr.bytesRecv.Add(int64(n))
		ep.mu.Lock()
		ep.in = append(ep.in, frame)
		wake := ep.wake
		ep.mu.Unlock()
		wake()
	}
}

// Send implements Endpoint.
func (ep *udpEndpoint) Send(to graph.NodeID, frame []byte) error {
	ep.tr.mu.Lock()
	addr, ok := ep.tr.addrs[to]
	ep.tr.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: node %d not attached", to)
	}
	return ep.write(frame, addr)
}

func (ep *udpEndpoint) write(frame []byte, addr *net.UDPAddr) error {
	_, err := ep.conn.WriteToUDP(frame, addr)
	if err != nil {
		ep.tr.sendErrors.Add(1)
	} else {
		ep.tr.datagramsSent.Add(1)
		ep.tr.bytesSent.Add(int64(len(frame)))
	}
	return err
}

// Broadcast implements Endpoint: one directory lookup and one
// counter-bookkeeping round for the whole fan-out, then a write per
// destination (the portable stdlib has no sendmmsg; the dominant
// per-Send cost here was the directory lock, not the syscall).
func (ep *udpEndpoint) Broadcast(dsts []graph.NodeID, frame []byte) error {
	ep.tr.mu.Lock()
	ep.bcastAddrs = ep.bcastAddrs[:0]
	for _, to := range dsts {
		ep.bcastAddrs = append(ep.bcastAddrs, ep.tr.addrs[to])
	}
	ep.tr.mu.Unlock()
	var firstErr error
	for i, addr := range ep.bcastAddrs {
		if addr == nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: node %d not attached", dsts[i])
			}
			continue
		}
		if err := ep.write(frame, addr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Drain implements Endpoint; the kept array drops the frames.
func (ep *udpEndpoint) Drain(into [][]byte) [][]byte {
	ep.mu.Lock()
	into = append(into, ep.in...)
	clear(ep.in)
	ep.in = ep.in[:0]
	ep.mu.Unlock()
	return into
}

// Notify implements Endpoint.
func (ep *udpEndpoint) Notify() <-chan struct{} { return ep.notify }

// Wake implements Endpoint.
func (ep *udpEndpoint) Wake(fn func()) {
	ep.mu.Lock()
	ep.wake = fn
	ep.mu.Unlock()
}

// Close implements Endpoint.
func (ep *udpEndpoint) Close() error {
	ep.mu.Lock()
	closed := ep.closed
	ep.closed = true
	ep.mu.Unlock()
	if closed {
		return nil
	}
	return ep.conn.Close()
}
