package cluster

import (
	"fmt"
	"slices"
	"sync"

	"silentspan/internal/graph"
	"silentspan/internal/ops"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/trace"
	"silentspan/internal/trees"
)

// This file is the cluster's admin surface: ops.NodeAdmin implemented
// over live node actors, an in-process Hub for tests and the
// certification crawler, and ServeAdmin binding one loopback HTTP
// socket per node for operators. Everything here reads protocol state
// under the node mutex or through atomic counters, so observing a
// free-running cluster is race-free.

// adminParent normalizes a register's parent pointer for admin
// responses: trees.None (root) and routing.NoParent (foreign/absent
// state) both read as ops.None.
func adminParent(s runtime.State) graph.NodeID {
	p := routing.ParentOf(s)
	if p == routing.NoParent || p == trees.None {
		return ops.None
	}
	return p
}

// adminSnapshot copies the node's register, clock, neighbor row (with
// the network size it was derived for) and neighbor cache under the
// mutex — the admin plane's consistent read of a live actor. The row is
// cloned because membership churn replaces it between reads: peers[j]
// is always the record for neighbors[j] of the same snapshot.
func (nd *Node) adminSnapshot() (self runtime.State, n int, tick uint64, neighbors []graph.NodeID, peers []peerState) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.self, nd.n, nd.localTick, slices.Clone(nd.neighbors), slices.Clone(nd.nbr)
}

// nodeAdmin implements ops.NodeAdmin over one node actor. addrOf, when
// set, resolves peer identities to their admin endpoint addresses —
// the hop the HTTP crawler follows.
type nodeAdmin struct {
	c      *Cluster
	nd     *Node
	addrOf func(graph.NodeID) string
}

func (a nodeAdmin) addr(id graph.NodeID) string {
	if a.addrOf == nil {
		return ""
	}
	return a.addrOf(id)
}

// AdminSelf implements ops.NodeAdmin.
func (a nodeAdmin) AdminSelf() ops.SelfInfo {
	self, n, tick, neighbors, _ := a.nd.adminSnapshot()
	root, dist := routing.RootDistOf(self)
	info := ops.SelfInfo{
		ID:        a.nd.id,
		N:         n,
		Algorithm: a.c.alg.Name(),
		Codec:     a.c.codec.Name(),
		Root:      root,
		Parent:    adminParent(self),
		Distance:  dist,
		Port:      -1,
		LocalTick: tick,
		AdminAddr: a.addr(a.nd.id),
	}
	if self != nil {
		info.Register = self.String()
		info.RegisterBits = self.EncodedBits()
	}
	if info.Parent != ops.None {
		if j, ok := slices.BinarySearch(neighbors, info.Parent); ok {
			info.Port = j
		}
	}
	return info
}

// AdminPeers implements ops.NodeAdmin: the neighbor cache with the
// same staleness rule the protocol's step applies.
func (a nodeAdmin) AdminPeers() ops.PeersInfo {
	_, _, tick, neighbors, peers := a.nd.adminSnapshot()
	ttl := uint64(a.c.cfg.StalenessTTL)
	out := ops.PeersInfo{Node: a.nd.id, StalenessTTL: int(ttl), Peers: make([]ops.PeerInfo, 0, len(peers))}
	for j, p := range peers {
		pi := ops.PeerInfo{
			ID:        neighbors[j],
			Seq:       p.lastSeq,
			AgeTicks:  -1,
			Stale:     true,
			AdminAddr: a.addr(neighbors[j]),
		}
		if p.lastSeen != 0 {
			pi.AgeTicks = int64(tick - p.lastSeen)
			pi.Stale = tick-p.lastSeen > ttl
		}
		if p.cache != nil {
			pi.Parent = adminParent(p.cache)
			pi.Register = p.cache.String()
		}
		out.Peers = append(out.Peers, pi)
	}
	return out
}

// AdminTree implements ops.NodeAdmin: the node's one-hop tree view —
// its own parent claim plus the children it learned from heartbeats
// (fresh neighbors whose cached register points here).
func (a nodeAdmin) AdminTree() ops.TreeInfo {
	self, _, tick, neighbors, peers := a.nd.adminSnapshot()
	ttl := uint64(a.c.cfg.StalenessTTL)
	root, dist := routing.RootDistOf(self)
	info := ops.TreeInfo{
		Node:     a.nd.id,
		Root:     root,
		Parent:   adminParent(self),
		Distance: dist,
		Children: []graph.NodeID{},
	}
	for j, p := range peers {
		if p.lastSeen == 0 || tick-p.lastSeen > ttl || p.cache == nil {
			continue
		}
		if adminParent(p.cache) == a.nd.id {
			info.Children = append(info.Children, neighbors[j])
		}
	}
	return info
}

// AdminQuiet implements ops.NodeAdmin: the node's view of the in-band
// termination detector (DESIGN.md §13).
func (a nodeAdmin) AdminQuiet() ops.QuietInfo {
	nd := a.nd
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return ops.QuietInfo{
		Node:         nd.id,
		Epoch:        nd.qEpoch,
		LocalQuiet:   nd.localQuiet(nd.localTick, &a.c.cfg),
		SubtreeQuiet: nd.qOut.Sub,
		Covered:      nd.qOut.Count,
		Root:         nd.self != nil && routing.ParentOf(nd.self) == trees.None,
		Announced:    nd.qOut.Ann,
	}
}

// AdminTrace implements ops.NodeAdmin: the node's flight-recorder ring
// (empty with the recorder disarmed). Snapshot locks only the ring, so
// the actor never stalls behind a trace collection.
func (a nodeAdmin) AdminTrace() ops.TraceInfo {
	info := ops.TraceInfo{Node: a.nd.id, Events: []trace.Event{}}
	r := a.nd.ring.Load()
	if r == nil {
		return info
	}
	info.Enabled = true
	info.Capacity = r.Cap()
	info.Events, info.Dropped = r.Snapshot(info.Events)
	return info
}

// AdminStats implements ops.NodeAdmin.
func (a nodeAdmin) AdminStats() ops.StatsInfo {
	s := a.nd.Stats()
	return ops.StatsInfo{
		Node:              a.nd.id,
		FramesSent:        int64(s.FramesSent),
		BytesSent:         int64(s.BytesSent),
		FramesRecv:        int64(s.FramesRecv),
		RxRejected:        int64(s.RxRejected),
		HeartbeatsApplied: int64(s.HeartbeatsApplied),
		RegisterWrites:    int64(s.RegisterWrites),
		StalenessExpiries: int64(s.StalenessExpiries),
		PacketsForwarded:  int64(s.PacketsForwarded),
		PacketsDropped:    int64(s.PacketsDropped),
	}
}

// AdminHub returns the in-process admin plane: every live node's handle
// registered in an ops.Hub, crawlable without sockets. Each call
// builds a fresh hub, so tests can Remove nodes to simulate dead admin
// endpoints without affecting other observers.
func (c *Cluster) AdminHub() *ops.Hub {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	h := ops.NewHub()
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		h.Register(nd.id, nodeAdmin{c: c, nd: nd})
	}
	return h
}

// AdminServers is a running per-node admin HTTP deployment. Once bound
// to a cluster by ServeAdmin it follows membership: a joining node gets
// its own socket, a retiring node's socket closes with it.
type AdminServers struct {
	mu      sync.RWMutex
	servers map[graph.NodeID]*ops.Server
	addrs   map[graph.NodeID]string
	order   []graph.NodeID
}

// Addr returns node id's admin address ("" when unknown).
func (a *AdminServers) Addr(id graph.NodeID) string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.addrs[id]
}

// Addrs returns (id, address) pairs in bind order (retired nodes
// dropped).
func (a *AdminServers) Addrs() []struct {
	ID   graph.NodeID
	Addr string
} {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]struct {
		ID   graph.NodeID
		Addr string
	}, 0, len(a.order))
	for _, id := range a.order {
		if addr, ok := a.addrs[id]; ok {
			out = append(out, struct {
				ID   graph.NodeID
				Addr string
			}{id, addr})
		}
	}
	return out
}

// Close shuts every server down.
func (a *AdminServers) Close() {
	a.mu.Lock()
	servers := a.servers
	a.servers = nil
	a.mu.Unlock()
	for _, s := range servers {
		s.Close()
	}
}

// add binds a socket for nd and records its address in the node's
// adverts. Best-effort: a node whose socket fails to bind simply runs
// without an admin endpoint. Caller holds the cluster's memMu.
func (a *AdminServers) add(c *Cluster, nd *Node) {
	srv := ops.NewServer(nodeAdmin{c: c, nd: nd, addrOf: a.Addr}, c.metrics)
	addr, err := srv.Start()
	if err != nil {
		return
	}
	a.mu.Lock()
	if a.servers == nil { // closed while we were binding
		a.mu.Unlock()
		srv.Close()
		return
	}
	a.servers[nd.id] = srv
	a.addrs[nd.id] = addr
	a.order = append(a.order, nd.id)
	a.mu.Unlock()
	nd.mu.Lock()
	nd.adminAddr = addr
	nd.mu.Unlock()
}

// remove closes a retiring node's socket and drops its directory entry.
func (a *AdminServers) remove(id graph.NodeID) {
	a.mu.Lock()
	srv := a.servers[id]
	delete(a.servers, id)
	delete(a.addrs, id)
	i := slices.Index(a.order, id)
	if i >= 0 {
		a.order = slices.Delete(a.order, i, i+1)
	}
	a.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// ServeAdmin binds one loopback admin HTTP socket per live node, each
// serving that node's getself/getpeers/gettree/getstats/getquiet plus the
// cluster's /metrics. Peer entries carry their admin addresses, so a
// crawler seeded with any single socket can walk the whole cluster.
// The deployment is bound to the cluster's membership: later joins and
// leaves add and remove sockets.
func (c *Cluster) ServeAdmin() (*AdminServers, error) {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	as := &AdminServers{
		servers: make(map[graph.NodeID]*ops.Server, len(c.nodes)),
		addrs:   make(map[graph.NodeID]string, len(c.nodes)),
	}
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		as.add(c, nd)
		if as.Addr(nd.id) == "" {
			as.Close()
			return nil, fmt.Errorf("cluster: admin socket for node %d failed to bind", nd.id)
		}
	}
	c.admin = as
	return as, nil
}
