package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"silentspan/internal/graph"
	"silentspan/internal/trace"
)

// fakeAdmin is a canned NodeAdmin: a node with a fixed parent and
// neighbor list.
type fakeAdmin struct {
	id        graph.NodeID
	parent    graph.NodeID
	neighbors []graph.NodeID
	addrOf    func(graph.NodeID) string
}

func (f *fakeAdmin) AdminSelf() SelfInfo {
	addr := ""
	if f.addrOf != nil {
		addr = f.addrOf(f.id)
	}
	return SelfInfo{
		ID: f.id, N: 8, Algorithm: "spanning-substrate", Codec: "spanning",
		Register: "r", RegisterBits: 12, Root: 1, Parent: f.parent,
		Distance: 1, Port: 0, LocalTick: 9, AdminAddr: addr,
	}
}

func (f *fakeAdmin) AdminPeers() PeersInfo {
	out := PeersInfo{Node: f.id, StalenessTTL: 8}
	for _, nb := range f.neighbors {
		pi := PeerInfo{ID: nb, Seq: 3, AgeTicks: 1, Parent: None}
		if f.addrOf != nil {
			pi.AdminAddr = f.addrOf(nb)
		}
		out.Peers = append(out.Peers, pi)
	}
	return out
}

func (f *fakeAdmin) AdminTree() TreeInfo {
	return TreeInfo{Node: f.id, Root: 1, Parent: f.parent, Children: []graph.NodeID{}, Distance: 1}
}

func (f *fakeAdmin) AdminStats() StatsInfo {
	return StatsInfo{Node: f.id, FramesSent: 4}
}

func (f *fakeAdmin) AdminQuiet() QuietInfo {
	return QuietInfo{Node: f.id, Epoch: 7, LocalQuiet: true}
}

func (f *fakeAdmin) AdminTrace() TraceInfo {
	return TraceInfo{Node: f.id, Enabled: true, Capacity: 16,
		Events: []trace.Event{{Kind: trace.RegWrite, Node: f.id, Epoch: 7, Tick: 9}}}
}

// star builds a hub over a star graph: node 1 is the root, nodes
// 2..n its children.
func star(n int) (*Hub, map[graph.NodeID]graph.NodeID) {
	h := NewHub()
	want := map[graph.NodeID]graph.NodeID{1: None}
	var leaves []graph.NodeID
	for id := graph.NodeID(2); id <= graph.NodeID(n); id++ {
		leaves = append(leaves, id)
		want[id] = 1
	}
	h.Register(1, &fakeAdmin{id: 1, parent: None, neighbors: leaves})
	for _, id := range leaves {
		h.Register(id, &fakeAdmin{id: id, parent: 1, neighbors: []graph.NodeID{1}})
	}
	return h, want
}

func TestCrawlHub(t *testing.T) {
	h, want := star(5)
	rep, err := Crawl(h, 3) // start at a leaf: discovery must still cover the star
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if rep.Visited() != 5 {
		t.Fatalf("Visited = %d, want 5", rep.Visited())
	}
	if diffs := rep.DiffParents(want); len(diffs) != 0 {
		t.Fatalf("DiffParents: %v", diffs)
	}
	if roots := rep.Roots(); len(roots) != 1 || roots[0] != 1 {
		t.Fatalf("Roots = %v, want [1]", roots)
	}
	if edges := rep.Edges(); len(edges) != 4 || edges[0] != [2]graph.NodeID{2, 1} {
		t.Fatalf("Edges = %v", edges)
	}
	if got := rep.Parents()[3]; got != 1 {
		t.Fatalf("Parents()[3] = %d, want 1", got)
	}
}

func TestCrawlPartitioned(t *testing.T) {
	h, _ := star(5)
	h.Remove(4) // dead admin endpoint: its neighborhood stays unexplored
	done := make(chan *CrawlReport, 1)
	go func() {
		rep, err := Crawl(h, 1)
		if err != nil {
			t.Errorf("Crawl: %v", err)
		}
		done <- rep
	}()
	var rep *CrawlReport
	select {
	case rep = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("crawl hung on a partitioned cluster")
	}
	if rep.Visited() != 4 {
		t.Fatalf("Visited = %d, want 4 (reachable component only)", rep.Visited())
	}
	if _, ok := rep.Errors[4]; !ok {
		t.Fatalf("Errors = %v, want entry for node 4", rep.Errors)
	}
	if _, ok := rep.Nodes[4]; ok {
		t.Fatal("dead node 4 must not appear in Nodes")
	}
}

func TestCrawlStartUnreachable(t *testing.T) {
	h, _ := star(3)
	h.Remove(1)
	if _, err := Crawl(h, 1); err == nil {
		t.Fatal("expected error crawling from a dead start node")
	}
}

func TestDiffParentsDivergences(t *testing.T) {
	h, want := star(3)
	want[2] = 3     // mismatch
	want[9] = 1     // expected but never crawled
	delete(want, 3) // crawled but not expected
	rep, err := Crawl(h, 1)
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	diffs := strings.Join(rep.DiffParents(want), "\n")
	for _, frag := range []string{"node 2", "node 9: expected but not crawled", "node 3: crawled but not in the mirror"} {
		if !strings.Contains(diffs, frag) {
			t.Errorf("diffs missing %q:\n%s", frag, diffs)
		}
	}
}

// httpStar binds real loopback admin servers for a star graph and
// returns the root's address plus a cleanup func.
func httpStar(t *testing.T, n int) (string, map[graph.NodeID]graph.NodeID) {
	t.Helper()
	addrs := make(map[graph.NodeID]string)
	addrOf := func(id graph.NodeID) string { return addrs[id] }
	want := map[graph.NodeID]graph.NodeID{1: None}
	var leaves []graph.NodeID
	for id := graph.NodeID(2); id <= graph.NodeID(n); id++ {
		leaves = append(leaves, id)
		want[id] = 1
	}
	admins := []*fakeAdmin{{id: 1, parent: None, neighbors: leaves, addrOf: addrOf}}
	for _, id := range leaves {
		admins = append(admins, &fakeAdmin{id: id, parent: 1, neighbors: []graph.NodeID{1}, addrOf: addrOf})
	}
	reg := NewRegistry()
	reg.CounterFunc("ss_test_total", "T.", nil, func() float64 { return 1 })
	for _, a := range admins {
		srv := NewServer(a, reg)
		addr, err := srv.Start()
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		addrs[a.id] = addr
		t.Cleanup(func() { srv.Close() })
	}
	return addrs[1], want
}

func TestCrawlHTTP(t *testing.T) {
	seed, want := httpStar(t, 4)
	c := NewHTTPClient(5 * time.Second)
	rep, err := CrawlAddr(c, seed)
	if err != nil {
		t.Fatalf("CrawlAddr: %v", err)
	}
	if rep.Visited() != 4 {
		t.Fatalf("Visited = %d, want 4", rep.Visited())
	}
	if diffs := rep.DiffParents(want); len(diffs) != 0 {
		t.Fatalf("DiffParents: %v", diffs)
	}
	// The crawl must have learned every node's address from peer infos.
	if _, err := c.Self(3); err != nil {
		t.Fatalf("Self(3) after crawl: %v", err)
	}
}

func TestHTTPClientErrors(t *testing.T) {
	c := NewHTTPClient(0)
	if _, err := c.Self(99); err == nil {
		t.Fatal("expected error for unknown node address")
	}
	if _, err := c.Peers(99); err == nil {
		t.Fatal("expected error for unknown node address")
	}
	if _, err := c.SelfAt("127.0.0.1:1"); err == nil {
		t.Fatal("expected connection error")
	}
}

func TestAdminEndpointsJSON(t *testing.T) {
	fa := &fakeAdmin{id: 7, parent: 1, neighbors: []graph.NodeID{1, 8}}
	reg := NewRegistry()
	reg.Gauge("ss_g", "G.", nil).Set(11)
	srv := NewServer(fa, reg)
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	if srv.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", srv.Addr(), addr)
	}

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		return m
	}

	tests := []struct {
		path string
		keys []string
		want map[string]any
	}{
		{"/getself", []string{"id", "n", "algorithm", "codec", "register", "register_bits", "root", "parent", "distance", "port", "local_tick"},
			map[string]any{"id": 7.0, "algorithm": "spanning-substrate", "parent": 1.0}},
		{"/getpeers", []string{"node", "staleness_ttl", "peers"},
			map[string]any{"node": 7.0, "staleness_ttl": 8.0}},
		{"/gettree", []string{"node", "root", "parent", "children", "distance"},
			map[string]any{"node": 7.0, "parent": 1.0}},
		{"/getstats", []string{"node", "frames_sent", "bytes_sent", "frames_recv", "rx_rejected", "heartbeats_applied", "register_writes", "staleness_expiries", "packets_forwarded", "packets_dropped"},
			map[string]any{"node": 7.0, "frames_sent": 4.0}},
		{"/getquiet", []string{"node", "epoch", "local_quiet", "subtree_quiet", "covered", "root", "announced_epoch"},
			map[string]any{"node": 7.0, "epoch": 7.0, "local_quiet": true}},
		{"/gettrace", []string{"node", "enabled", "capacity", "events"},
			map[string]any{"node": 7.0, "enabled": true, "capacity": 16.0}},
	}
	for _, tc := range tests {
		m := get(tc.path)
		for _, k := range tc.keys {
			if _, ok := m[k]; !ok {
				t.Errorf("%s: missing key %q in %v", tc.path, k, m)
			}
		}
		for k, v := range tc.want {
			if m[k] != v {
				t.Errorf("%s: %q = %v, want %v", tc.path, k, m[k], v)
			}
		}
	}

	// gettrace round-trips typed events, not just generic JSON.
	{
		resp, err := http.Get("http://" + addr + "/gettrace")
		if err != nil {
			t.Fatalf("GET /gettrace: %v", err)
		}
		var ti TraceInfo
		if err := json.NewDecoder(resp.Body).Decode(&ti); err != nil {
			t.Fatalf("decode trace: %v", err)
		}
		resp.Body.Close()
		if !ti.Enabled || len(ti.Events) != 1 ||
			ti.Events[0].Kind != trace.RegWrite || ti.Events[0].Epoch != 7 || ti.Events[0].Tick != 9 {
			t.Errorf("gettrace = %+v", ti)
		}
	}

	// getpeers carries per-peer shape too.
	resp, err := http.Get("http://" + addr + "/getpeers")
	if err != nil {
		t.Fatalf("GET /getpeers: %v", err)
	}
	var pi PeersInfo
	if err := json.NewDecoder(resp.Body).Decode(&pi); err != nil {
		t.Fatalf("decode peers: %v", err)
	}
	resp.Body.Close()
	if len(pi.Peers) != 2 || pi.Peers[0].ID != 1 || pi.Peers[0].Seq != 3 {
		t.Errorf("peers = %+v", pi.Peers)
	}

	// /metrics serves the shared registry; / serves the index; junk 404s.
	body := readBody(t, addr, "/metrics")
	if !strings.Contains(body, "ss_g 11") {
		t.Errorf("/metrics missing gauge:\n%s", body)
	}
	if !strings.Contains(readBody(t, addr, "/"), "getself") {
		t.Error("index page missing route list")
	}
	if resp, err := http.Get("http://" + addr + "/nope"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/nope: HTTP %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}

	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func readBody(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return string(body)
}
