package cert

import (
	"strings"
	"testing"

	"silentspan/internal/routing"
)

// TestClusterCampaignSlice: a deterministic slice of the cluster
// certification campaign — small graphs, all five algorithms, all
// three transport profiles — must certify with zero counterexamples.
// The full n≤6 sweep runs in CI via sscert -cluster.
func TestClusterCampaignSlice(t *testing.T) {
	maxN := 5
	if testing.Short() {
		maxN = 4
	}
	rep, err := RunCluster(ClusterConfig{MaxN: maxN, Seed: 1}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ce := range rep.Counterexamples {
		t.Errorf("counterexample: %s", ce)
	}
	if rep.Runs == 0 || rep.FramesSent == 0 {
		t.Fatalf("campaign ran nothing: %+v", rep)
	}
	if rep.PacketsArrived == 0 {
		t.Fatal("no packet ever arrived")
	}
	// Every algorithm must have produced a worst-case record.
	for _, a := range routing.AllAlgos() {
		if _, ok := rep.Worst[a.String()]; !ok {
			t.Errorf("no worst-case record for %s", a)
		}
	}
}

// TestClusterChurnCampaignSlice: the membership-churn variant — every
// run injects a schedule of joins, leaves, crashes, and link flaps into
// the live cluster mid-campaign, then the full post-quiet battery
// (spec, closure, register bound, crawl, delivery ledger) must still
// certify on the final graph. The full churn sweep runs in CI via
// sscert -cluster -cluster-churn.
func TestClusterChurnCampaignSlice(t *testing.T) {
	cfg := ClusterConfig{MaxN: 4, Seed: 3, ChurnOps: 4}
	if testing.Short() {
		cfg.Algos = []routing.Algo{routing.AlgoSpanning, routing.AlgoBFS}
	}
	rep, err := RunCluster(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ce := range rep.Counterexamples {
		t.Errorf("counterexample: %s", ce)
	}
	if rep.Runs == 0 {
		t.Fatalf("campaign ran nothing: %+v", rep)
	}
	if rep.Joins == 0 || rep.Leaves+rep.Crashes == 0 {
		t.Fatalf("churn never exercised membership: %+v", rep)
	}
}

// TestClusterCampaignDeterministic: the campaign is replayable — same
// config, same outcome counters.
func TestClusterCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replay pair in -short mode")
	}
	cfg := ClusterConfig{MaxN: 4, Seed: 7, Algos: []routing.Algo{routing.AlgoSpanning, routing.AlgoBFS}}
	r1, err := RunCluster(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCluster(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FramesSent != r2.FramesSent || r1.FramesRejected != r2.FramesRejected ||
		r1.PacketsArrived != r2.PacketsArrived || len(r1.Counterexamples) != len(r2.Counterexamples) {
		t.Fatalf("campaign not deterministic:\n%+v\n%+v", r1, r2)
	}
}

// TestClusterProfilesCoverFaultMenu: the registry must include the
// adversarial profile with every fault class armed (the acceptance
// criterion's "seeded loss/dup/reorder faults").
func TestClusterProfilesCoverFaultMenu(t *testing.T) {
	var names []string
	sawFull := false
	for _, p := range ClusterProfiles() {
		names = append(names, p.Name)
		f := p.Faults
		if f.Loss > 0 && f.Dup > 0 && f.Corrupt > 0 && f.Delay > 0 {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatalf("no profile arms the full fault menu: %s", strings.Join(names, ", "))
	}
}
