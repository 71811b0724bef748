package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/spanning"
	"silentspan/internal/trees"
)

// TestBackoffCapDerivation: the fill table for the keep-alive back-off
// cap. The invariant under test is the staleness-safety arithmetic: a
// quiet sender emits one keep-alive per cap ticks, so the default cap
// (TTL−2)/4 keeps a peer's observed age under the TTL through three
// consecutive lost keep-alives, and no explicit value may exceed the
// (TTL−2)/2 hard clamp (one tolerated loss).
func TestBackoffCapDerivation(t *testing.T) {
	cases := []struct {
		name         string
		hb, ttl, cap int
		want         int
	}{
		{"defaults", 0, 0, 0, 2},      // ttl 12 → (12−2)/4
		{"cert-shape", 1, 48, 0, 11},  // (48−2)/4
		{"wide-ttl", 1, 128, 0, 31},   // (128−2)/4
		{"hb-dominates", 4, 12, 0, 4}, // max(hb, (ttl−2)/4)
		{"explicit-under-clamp", 1, 48, 20, 20},
		{"explicit-at-clamp", 1, 48, 23, 23},   // (48−2)/2
		{"explicit-over-clamp", 1, 48, 40, 23}, // clamped
		{"explicit-far-over", 1, 12, 100, 5},   // (12−2)/2
	}
	for _, tc := range cases {
		cfg := Config{HeartbeatEvery: tc.hb, StalenessTTL: tc.ttl, BackoffCap: tc.cap}
		cfg.fill()
		if cfg.BackoffCap != tc.want {
			t.Errorf("%s: cap = %d, want %d", tc.name, cfg.BackoffCap, tc.want)
		}
		if hard := (cfg.StalenessTTL - 2) / 2; cfg.BackoffCap > hard && cfg.BackoffCap > cfg.HeartbeatEvery {
			t.Errorf("%s: cap %d exceeds the (TTL−2)/2 safety clamp %d", tc.name, cfg.BackoffCap, hard)
		}
	}
}

// TestBackoffNeverExpiresFresh: across the TTL boundary table, a
// converged cluster idling under keep-alive back-off never lets a live
// peer expire on a clean transport — the cap-vs-TTL derivation is
// exactly what makes the quiet cadence safe, down to the smallest TTL.
// Under 30% loss an expiry is the transport's doing, not the cadence's:
// there the bound is that expiries stay rare (a broken cap would flap
// every peer every TTL) and the cluster re-silences afterward.
func TestBackoffNeverExpiresFresh(t *testing.T) {
	for _, ttl := range []int{8, 12, 48, 128} {
		for _, lossy := range []bool{false, true} {
			name := map[bool]string{false: "clean", true: "lossy"}[lossy]
			t.Run(fmt.Sprintf("ttl-%d/%s", ttl, name), func(t *testing.T) {
				g := graph.Ring(8)
				var tr Transport = NewChanTransport()
				if lossy {
					tr = NewFaultTransport(tr, FaultConfig{Seed: int64(ttl), Loss: 0.3})
				}
				cl, err := New(g, spanning.Algorithm{}, tr, Config{StalenessTTL: ttl})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Stop()
				cl.InitArbitrary(rand.New(rand.NewSource(21)))
				converge(t, cl, 20000)
				base := cl.Stats().StalenessExpiries
				idle := 6 * ttl
				for i := 0; i < idle; i++ {
					cl.Tick()
				}
				n := cl.Stats().StalenessExpiries - base
				if !lossy && n != 0 {
					t.Fatalf("ttl=%d: %d live peers expired while idling under back-off on a clean transport", ttl, n)
				}
				// A runaway cadence would expire every ring peer once per
				// TTL: 2·M·idle/ttl expiries. Rare transport-induced ones
				// must stay far under that.
				if lossy && n > 2*g.M() {
					t.Fatalf("ttl=%d: %d expiries over %d idle ticks under loss (cadence outrunning the TTL?)", ttl, n, idle)
				}
				converge(t, cl, 20000)
				checkSilentTree(t, cl)
			})
		}
	}
}

// TestCadenceSnapsBack: once idle gaps reach the back-off cap, a
// single register write makes the writer broadcast on its very next
// tick — the gap resets to the base interval instead of waiting out
// the backed-off keep-alive — and the cluster re-converges.
func TestCadenceSnapsBack(t *testing.T) {
	g := graph.Ring(8)
	cl, err := New(g, spanning.Algorithm{}, NewChanTransport(), Config{StalenessTTL: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(33)))
	converge(t, cl, 4000)
	cap := cl.cfg.BackoffCap

	// Let every node's keep-alive gap climb to the cap, then verify the
	// idle wire really is sparse and small over one cap-sized window.
	// Measured on this seeded ring: 0.133 frames/tick/node (degree 2 over
	// cap 15 — vs 2.0 at the base cadence) and 12.5 bytes/frame. The
	// ceilings leave 50% and 28% headroom.
	for i := 0; i < 6*cap; i++ {
		cl.Tick()
	}
	idle0 := cl.Stats()
	for i := 0; i < cap; i++ {
		cl.Tick()
	}
	idle1 := cl.Stats()
	frames, bytes := idle1.FramesSent-idle0.FramesSent, idle1.BytesSent-idle0.BytesSent
	if perTickNode := float64(frames) / float64(cap*g.N()); perTickNode > 0.2 {
		t.Fatalf("idle window sent %.3f frames/tick/node, want <= 0.2 (back-off not engaged)", perTickNode)
	}
	if perFrame := float64(bytes) / float64(frames); perFrame > 16 {
		t.Fatalf("idle keep-alives average %.1f bytes/frame, want <= 16", perFrame)
	}

	// One register write: the victim must broadcast within one base
	// interval, not one back-off gap.
	victim := g.Nodes()[3]
	nd := cl.Node(victim)
	before := nd.Stats().FramesSent
	cl.SetState(victim, spanning.State{Root: victim, Parent: trees.None, Dist: 0})
	cl.Tick()
	sent := nd.Stats().FramesSent - before
	if sent < len(nd.neighbors) {
		t.Fatalf("victim sent %d frames on the tick after a write, want a full %d-neighbor broadcast", sent, len(nd.neighbors))
	}
	if got := nd.gap; got != uint64(cl.cfg.HeartbeatEvery) {
		t.Fatalf("victim gap = %d after a write, want base interval %d", got, cl.cfg.HeartbeatEvery)
	}
	converge(t, cl, 4000)
	checkSilentTree(t, cl)
}

// TestDeltaAnchorLossHeals: a transport blackout that swallows anchor
// frames leaves receivers holding deltas they cannot apply. The
// protocol must detect the miss (never refreshing a cache from an
// unreadable frame), request a resync, re-anchor, and re-converge to
// the same silent tree.
func TestDeltaAnchorLossHeals(t *testing.T) {
	g := graph.Ring(8)
	ft := NewFaultTransport(NewChanTransport(), FaultConfig{Seed: 7, Loss: 1})
	ft.SetEnabled(false) // clean until the blackout
	cl, err := New(g, spanning.Algorithm{}, ft, Config{StalenessTTL: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(41)))
	converge(t, cl, 4000)

	// Blackout: every frame lost, while every register is rewritten each
	// tick, so every sender broadcasts each tick and — the blackout
	// outlasting two fullEvery periods — anchors into the void at least
	// twice: the post-blackout deltas are guaranteed to reference a lost
	// anchor.
	ft.SetEnabled(true)
	for i := 0; i < 2*fullEvery+2; i++ {
		for _, v := range g.Nodes() {
			cl.SetState(v, spanning.State{Root: v, Parent: trees.None, Dist: 0})
		}
		cl.Tick()
	}
	ft.SetEnabled(false)
	miss0 := cl.Stats()

	converge(t, cl, 4000)
	checkSilentTree(t, cl)
	st := cl.Stats()
	if st.DeltaMisses == 0 {
		t.Fatalf("blackout produced no delta misses: %+v", st)
	}
	if st.ResyncsSent <= miss0.ResyncsSent {
		t.Fatalf("no resync requested after the blackout: %+v", st)
	}
	if st.AnchorsSent == 0 || st.DeltasSent == 0 {
		t.Fatalf("delta protocol not exercised: %+v", st)
	}
}

// TestDeltaDupReorder: a duplicating, heavily reordering transport
// cannot corrupt the delta stream — anchored (not chained) deltas plus
// the per-sender seq filter make replays and stragglers harmless.
func TestDeltaDupReorder(t *testing.T) {
	g := graph.Ring(8)
	ft := NewFaultTransport(NewChanTransport(), FaultConfig{
		Seed: 13, Dup: 0.4, Delay: 0.4, MaxDelayTicks: 6})
	cl, err := New(g, spanning.Algorithm{}, ft, Config{StalenessTTL: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.InitArbitrary(rand.New(rand.NewSource(43)))
	converge(t, cl, 20000)
	checkSilentTree(t, cl)
	st := cl.Stats()
	if st.RxRejected == 0 {
		t.Fatalf("duplicates were never rejected: %+v", st)
	}
	if fs := ft.Stats(); fs.Duplicated == 0 || fs.Delayed == 0 {
		t.Fatalf("fault profile unused: %+v", fs)
	}
}
