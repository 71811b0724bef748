package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the contract's shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalog: BENCHMARK.json is exactly what -spec
// prints, and stays inside the limits the driver enforces.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var onDisk, fromCatalog any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(benchmarkSpec())
	json.Unmarshal(spec, &fromCatalog)
	if !reflect.DeepEqual(onDisk, fromCatalog) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it: go -C benchmark run . -spec > BENCHMARK.json")
	}

	f := loadBenchmarkFile(t)
	if len(f.Workloads) != 5 || len(f.EndToEnd) != 16 {
		t.Errorf("%d workloads and %d end-to-end metrics, want 5 and 16", len(f.Workloads), len(f.EndToEnd))
	}
	if len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(f.PerLayer))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
		if _, ok := plans[w.Name]; !ok {
			t.Errorf("workload %s has no plan", w.Name)
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range f.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestResultRoundTrip: a finished run's driver line names exactly
// BENCHMARK.json's metrics, end-to-end untraced and per-layer traced,
// and survives JSON.
func TestResultRoundTrip(t *testing.T) {
	f := loadBenchmarkFile(t)
	var e2e, layers []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range f.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, tc := range []struct {
		trace bool
		want  []string
	}{{false, e2e}, {true, layers}} {
		r := newRun(wSim, 1, 1, tc.trace)
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			r.add(m.Name, 1.5)
			r.add(m.Name, 2.5)
		}
		r.ops(10, 0, "things")
		res := r.finish(environment{}, time.Second)
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted != 10 || line.Failed != 0 {
			t.Errorf("trace=%v: line %+v, want correct with 10 attempted and none failed", tc.trace, line)
		}
		var got []string
		for n, m := range line.Metrics {
			got = append(got, n)
			if m.Value != 2 || m.Unit == "" {
				t.Errorf("trace=%v: %s = %+v, want the median 2 with its unit", tc.trace, n, m)
			}
		}
		sort.Strings(got)
		want := append([]string(nil), tc.want...)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: driver line names %v, BENCHMARK.json names %v", tc.trace, got, want)
		}
	}

	// A metric nobody measured, or a failed operation, makes the run incorrect.
	r := newRun(wSim, 1, 1, false)
	if res := r.finish(environment{}, 0); res.Correct {
		t.Error("a run with no samples reported correct")
	}
	r = newRun(wSim, 1, 1, false)
	r.ops(5, 1, "things")
	if r.failed != 1 || len(r.violations) != 1 {
		t.Errorf("failed %d violations %d, want 1 and 1", r.failed, len(r.violations))
	}
}
