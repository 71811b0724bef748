package cert

// Pinned certificates: small slices of all five campaigns, marshalled
// exactly as `sscert -out` writes them and compared byte for byte
// against testdata/pinned/. The golden traces pin the engine's
// semantics; these pin what the harness around it draws, checks and
// records — every rng draw order, seed formula, worst-case entry and
// counter — so a refactor of the campaign drivers that moves one draw
// fails here instead of needing a `cmp` against a parent build.
// Regenerate with:
//
//	go test ./internal/cert -run TestCertificatesPinned -update
//
// and review the diff: a changed byte is a changed certificate.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// pinnedFile mirrors the combined certificate file of cmd/sscert.
type pinnedFile struct {
	Exhaustive *ExhaustiveReport `json:"exhaustive,omitempty"`
	Churn      *ChurnReport      `json:"churn,omitempty"`
	Cluster    *ClusterReport    `json:"cluster,omitempty"`
	Chaos      *Certificate      `json:"chaos,omitempty"`
}

func TestCertificatesPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func() (pinnedFile, error)
	}{
		{"exhaustive", func() (pinnedFile, error) {
			rep, err := RunExhaustive(ExhaustiveConfig{MaxN: 3, Samples: 3, ExhaustiveInitMaxN: 3, Seed: 1}, nil)
			return pinnedFile{Exhaustive: rep}, err
		}},
		{"churn", func() (pinnedFile, error) {
			rep, err := RunChurn(ChurnConfig{MaxN: 4, Schedules: 2, Length: 6, Seed: 1}, nil)
			return pinnedFile{Churn: rep}, err
		}},
		{"cluster", func() (pinnedFile, error) {
			rep, err := RunCluster(ClusterConfig{MaxN: 4, Runs: 1, Seed: 1}, nil)
			return pinnedFile{Cluster: rep}, err
		}},
		{"cluster_churn", func() (pinnedFile, error) {
			rep, err := RunCluster(ClusterConfig{MaxN: 4, Runs: 1, ChurnOps: 4, Seed: 1}, nil)
			return pinnedFile{Cluster: rep}, err
		}},
		{"chaos", func() (pinnedFile, error) {
			c, err := RunChaos(ChaosConfig{N: 300, Substrate: "bfs", Scheduler: "random-subset", Bursts: 2, Seed: 1}, nil)
			return pinnedFile{Chaos: c}, err
		}},
		{"chaos_mst", func() (pinnedFile, error) {
			c, err := RunChaos(ChaosConfig{N: 300, Substrate: "mst", Scheduler: "greedy-stretch", Bursts: 2, Seed: 1}, nil)
			return pinnedFile{Chaos: c}, err
		}},
		{"chaos_mdst", func() (pinnedFile, error) {
			c, err := RunChaos(ChaosConfig{N: 300, Substrate: "mdst", Scheduler: "round-robin", Bursts: 2, Seed: 1}, nil)
			return pinnedFile{Chaos: c}, err
		}},
		// Falsified slices: a starved budget makes every run a
		// counterexample, pinning the ledger's other half — entry
		// content, append order and the stop at MaxCounterexamples.
		{"exhaustive_falsified", func() (pinnedFile, error) {
			rep, err := RunExhaustive(ExhaustiveConfig{MaxN: 3, SkipFamilies: true, MaxMoves: 1, MaxCounterexamples: 7, Seed: 1}, nil)
			return pinnedFile{Exhaustive: rep}, err
		}},
		{"churn_falsified", func() (pinnedFile, error) {
			rep, err := RunChurn(ChurnConfig{MaxN: 4, Schedules: 1, Length: 4, MaxMoves: 12, MaxCounterexamples: 12, Seed: 1}, nil)
			return pinnedFile{Churn: rep}, err
		}},
		{"cluster_falsified", func() (pinnedFile, error) {
			rep, err := RunCluster(ClusterConfig{MaxN: 4, MaxTicks: 2, MaxCounterexamples: 4, Seed: 1}, nil)
			return pinnedFile{Cluster: rep}, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			file, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(file, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "pinned", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing pinned certificate (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("certificate diverges from %s.\nA campaign driver changed what it draws, checks or records. If intended, regenerate with -update and review the diff.\n%s",
					path, firstDiff(string(got), string(want)))
			}
		})
	}
}
