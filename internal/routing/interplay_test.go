package routing

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// The fault-interplay acceptance: after corrupting registers mid-
// traffic, the substrate re-stabilizes and routing recovers to 100%
// delivery, for each constrained-tree substrate (BFS / MST / MDST).
func TestInterplayRecoversPerSubstrate(t *testing.T) {
	for _, sub := range []Algo{AlgoBFS, AlgoMST, AlgoMDST} {
		sub := sub
		t.Run(sub.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(20))
			g := graph.RandomConnected(24, 0.15, rng)
			rep, err := RunInterplay(g, InterplayConfig{
				Substrate: sub,
				Faults:    4,
				Seed:      7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Pre.Delivered != rep.Pre.Sent {
				t.Errorf("pre-fault delivery %d of %d", rep.Pre.Delivered, rep.Pre.Sent)
			}
			if !rep.Restabilized {
				t.Fatal("substrate did not re-stabilize")
			}
			if rep.Post.Delivered != rep.Post.Sent {
				t.Errorf("post-recovery delivery %d of %d, want 100%%", rep.Post.Delivered, rep.Post.Sent)
			}
			total := rep.InFlight.Delivered() + rep.InFlight.Dropped
			if total != rep.InFlight.Sent {
				t.Errorf("in-flight accounting: delivered %d + dropped %d != sent %d",
					rep.InFlight.Delivered(), rep.InFlight.Dropped, rep.InFlight.Sent)
			}
			if rep.ReconvergeMoves == 0 {
				t.Error("no repair moves despite corruption")
			}
			t.Logf("%s: pre %v", sub, rep.Pre)
			t.Logf("%s: in-flight sent=%d during=%d after=%d looped=%d dropped=%d stalls=%d; reconverge %d moves / %d windows",
				sub, rep.InFlight.Sent, rep.InFlight.DeliveredDuring, rep.InFlight.DeliveredAfter,
				rep.InFlight.Looped, rep.InFlight.Dropped, rep.InFlight.StallWindows,
				rep.ReconvergeMoves, rep.Windows)
			t.Logf("%s: post %v (height %d->%d, maxdeg %d->%d)",
				sub, rep.Post, rep.PreHeight, rep.PostHeight, rep.PreMaxDegree, rep.PostMaxDegree)
		})
	}
}

// Corruption that tears a parent pointer must actually degrade the
// live labeling (otherwise the interplay experiment measures nothing),
// while routing keeps working within the intact region.
func TestLiveLabelingDegradesUnderCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.RandomConnected(32, 0.12, rng)
	net, tree, err := BringUp(g, AlgoBFS, runtime.Central(), 20_000_000, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := NewLive(net)
	if !live.Labeling().Complete() {
		t.Fatal("live labeling of a silent configuration not complete")
	}

	// Point a deep node's parent at a non-neighbor: it and its subtree
	// fall out of the labeling.
	ix := trees.NewIndex(tree)
	var victim graph.NodeID
	for _, v := range ix.BFSOrder() {
		if ix.Depth(v) >= 2 {
			victim = v
			break
		}
	}
	if victim == trees.None {
		t.Skip("tree too shallow for the scenario")
	}
	s, _ := switching.RegOf(net.State(victim))
	s.Parent = victim // self: never a graph edge
	net.SetState(victim, s)

	live.Sync()
	lab := live.Labeling()
	if lab.Complete() {
		t.Fatal("labeling still complete after tearing a parent pointer")
	}
	if _, ok := lab.Coords(victim); ok {
		t.Error("victim kept a coordinate")
	}
	// Routing between labeled nodes in the root's space still works.
	r := live.Router()
	delivered := 0
	for _, u := range g.Nodes() {
		if u == tree.Root() {
			continue
		}
		if _, ok := lab.Coords(u); !ok {
			continue
		}
		if rootOf, _ := lab.RootOf(u); rootOf != tree.Root() {
			continue
		}
		if d := r.Route(u, tree.Root()); d.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("no labeled node could still reach the root")
	}
}

var updatePinned = flag.Bool("update", false, "rewrite testdata/interplay_pinned.json")

// TestInterplayReportsPinned compares the three per-substrate reports of
// one seeded run field for field against committed values: every rng
// draw (bring-up, batches, cohort, victims), the move count and the
// window loop are pinned, so a refactor of the episode that moves one
// of them fails here. Eight faults make every substrate's repair span
// several windows, so the pin covers routing over a decaying labeling.
// Regenerate with
//
//	go test ./internal/routing -run TestInterplayReportsPinned -update
func TestInterplayReportsPinned(t *testing.T) {
	const path = "testdata/interplay_pinned.json"
	var got []*InterplayReport
	for _, sub := range []Algo{AlgoBFS, AlgoMST, AlgoMDST} {
		g := graph.RandomConnected(24, 0.15, rand.New(rand.NewSource(20)))
		rep, err := RunInterplay(g, InterplayConfig{Substrate: sub, Faults: 8, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		if rep.Windows < 2 {
			t.Errorf("%s: repair spans %d window(s), want at least 2", sub, rep.Windows)
		}
		got = append(got, rep)
	}
	if *updatePinned {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pinned reports (regenerate with -update): %v", err)
	}
	var want []*InterplayReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d pinned reports, ran %d", len(want), len(got))
	}
	for i := range got {
		gv, wv := reflect.ValueOf(*got[i]), reflect.ValueOf(*want[i])
		for f := 0; f < gv.NumField(); f++ {
			if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
				t.Errorf("%s: %s = %+v, pinned %+v", got[i].Substrate, gv.Type().Field(f).Name,
					gv.Field(f).Interface(), wv.Field(f).Interface())
			}
		}
	}
}
