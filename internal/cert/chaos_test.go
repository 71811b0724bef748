package cert

import (
	"encoding/json"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// TestChaosCampaignSmall runs a seeded campaign per substrate on a
// 300-node graph and checks the certificate invariants: every burst
// recovers to a verifier-accepted silent configuration, no packet
// cohort is wiped out, and registers stay within the paper bound.
func TestChaosCampaignSmall(t *testing.T) {
	for _, sub := range []string{"bfs", "mst", "mdst"} {
		t.Run(sub, func(t *testing.T) {
			c, err := RunChaos(ChaosConfig{
				N: 300, Substrate: sub, Bursts: 2, Seed: 7,
			}, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if !c.FinalSilent || !c.FinalSpecValid {
				t.Fatalf("final state silent=%v spec=%v", c.FinalSilent, c.FinalSpecValid)
			}
			if len(c.Bursts) != 2 {
				t.Fatalf("recorded %d bursts, want 2", len(c.Bursts))
			}
			for _, b := range c.Bursts {
				if b.Corrupted == 0 || b.Wiped == 0 || b.Reweighed == 0 {
					t.Errorf("burst %d injected nothing: %+v", b.Burst, b)
				}
				if b.Delivered+b.Dropped != chaosInFlight {
					t.Errorf("burst %d: %d delivered + %d dropped != %d in flight",
						b.Burst, b.Delivered, b.Dropped, chaosInFlight)
				}
				if b.PostDelivery < 1 {
					t.Errorf("burst %d: post-recovery delivery %.3f < 1 over a consistent labeling",
						b.Burst, b.PostDelivery)
				}
			}
			if c.Worst.RegisterBits > c.RegisterBound {
				t.Errorf("register width %d exceeds bound %d", c.Worst.RegisterBits, c.RegisterBound)
			}
			// The certificate must round-trip as JSON (it is a CI artifact).
			data, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			var back Certificate
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back.Worst != c.Worst {
				t.Errorf("worst-case block did not round-trip: %+v vs %+v", back.Worst, c.Worst)
			}
		})
	}
}

// TestSpecRejectsMalleableLabels: chaos's final_spec_valid is checkSpec,
// not the malleable verifier. On the 3-node prune-wave deadlock — a path
// rooted at 1 whose node 2 has d = ⊥ mid-prune and node 3 d = ⊥ — the
// parent pointers form a tree and switching's Verify accepts the ⊥
// labels, since they are legal mid-switch; checkSpec wants idle
// registers with exact labels and must reject it.
func TestSpecRejectsMalleableLabels(t *testing.T) {
	g := graph.Path(3)
	tr, err := trees.FromParentMap(map[graph.NodeID]graph.NodeID{1: trees.None, 2: 1, 3: 2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := runtime.NewNetwork(g, switching.Algorithm{})
	if err != nil {
		t.Fatal(err)
	}
	if err := switching.InitFromTree(net, tr); err != nil {
		t.Fatal(err)
	}
	if err := checkSpec(routing.AlgoMST, g, net); err != nil {
		t.Fatalf("legal configuration rejected: %v", err)
	}
	s2, _ := switching.RegOf(net.State(2))
	s2.HasD, s2.D, s2.Sub = false, 0, switching.SubPrune
	net.SetState(2, s2)
	s3, _ := switching.RegOf(net.State(3))
	s3.HasD, s3.D = false, 0
	net.SetState(3, s3)
	if s3.Sub != switching.SubOff {
		t.Fatalf("node 3 holds Sub %v, want SubOff", s3.Sub)
	}

	asg, err := switching.ToAssignment(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := asg.Verify(g); err != nil {
		t.Fatalf("malleable verifier rejects the deadlock (%v); the test no longer shows the gap", err)
	}
	for _, a := range []routing.Algo{routing.AlgoBFS, routing.AlgoMST, routing.AlgoMDST} {
		if err := checkSpec(a, g, net); err == nil {
			t.Errorf("%s: checkSpec accepts d = ⊥ labels mid-prune", a)
		}
	}
}

// TestChaosDeterministic: identical configs yield identical
// certificates — the property that makes diffing against committed
// bounds meaningful.
func TestChaosDeterministic(t *testing.T) {
	cfg := ChaosConfig{N: 200, Bursts: 2, Seed: 11}
	a, err := RunChaos(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same config, different certificates:\n%s\n%s", ja, jb)
	}
}

// TestCommittedBoundsLoad: the committed CI envelope parses and
// constrains the fields CI relies on.
func TestCommittedBoundsLoad(t *testing.T) {
	b, err := LoadBounds("testdata/chaos_bounds.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxRecoveryMoves == 0 || b.MaxRecoveryRounds == 0 || b.MaxRegisterBits == 0 {
		t.Fatalf("committed bounds leave core envelopes unset: %+v", b)
	}
}
