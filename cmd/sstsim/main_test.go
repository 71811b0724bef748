package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestParseGraph: every family builds from a well-formed spec and
// returns an error — never a panic — on too few or too many fields, a
// non-numeric field, and a size the generator cannot build.
func TestParseGraph(t *testing.T) {
	families := []struct {
		ok   string
		n    int
		bad  []string
		want string // the form the error must name
	}{
		{"ring:8", 8, []string{"ring", "ring:8:2", "ring:x", "ring:2"}, "ring:<int>"},
		{"path:5", 5, []string{"path", "path:5:1", "path:five", "path:0"}, "path:<int>"},
		{"star:6", 6, []string{"star", "star:6:6", "star:1.5", "star:-3"}, "star:<int>"},
		{"complete:4", 4, []string{"complete", "complete:4:4", "complete:", "complete:0"}, "complete:<int>"},
		{"grid:3:4", 12, []string{"grid", "grid:3", "grid:3:4:5", "grid:3:y", "grid:0:4", "grid:3:0"}, "grid:<int>:<int>"},
		{"lollipop:4:3", 7, []string{"lollipop", "lollipop:4", "lollipop:k:3", "lollipop:0:3", "lollipop:4:-1"}, "lollipop:<int>:<int>"},
		{"random:12:0.3", 12, []string{"random", "random:12", "random:12:0.3:1", "random:12:p", "random:0:0.5"}, "random:<int>:<float>"},
		{"geometric:10:0.5", 10, []string{"geometric", "geometric:10", "geometric:n:0.5", "geometric:10:r", "geometric:0:0.5"}, "geometric:<int>:<float>"},
	}
	if len(families) != len(graphFamilies) {
		t.Fatalf("table covers %d families, parseGraph knows %d", len(families), len(graphFamilies))
	}
	for _, f := range families {
		g, err := parseGraph(f.ok, 1)
		if err != nil {
			t.Errorf("%s: %v", f.ok, err)
		} else if g.N() != f.n || !g.Connected() {
			t.Errorf("%s: n=%d connected=%v, want %d nodes, connected", f.ok, g.N(), g.Connected(), f.n)
		}
		for _, spec := range f.bad {
			g, err := parseGraph(spec, 1)
			if err == nil {
				t.Errorf("%s: built n=%d, want an error", spec, g.N())
			} else if !strings.Contains(err.Error(), f.want) {
				t.Errorf("%s: error %q does not name the expected form %s", spec, err, f.want)
			}
		}
	}
	if _, err := parseGraph("lollipop:5:0", 1); err != nil {
		t.Errorf("lollipop:5:0 (an empty tail) is a legal graph: %v", err)
	}
	if _, err := parseGraph("torus:3", 1); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Errorf("unknown family: got %v", err)
	}
}

// TestParseGraphProbabilities: a non-finite probability is a spec
// error naming the form, and a tiny one builds the spanning tree alone
// (its first skip passes every pair; it used to overflow into a
// negative identity and panic).
func TestParseGraphProbabilities(t *testing.T) {
	for _, spec := range []string{"random:50:NaN", "random:50:+Inf", "geometric:50:NaN", "geometric:50:-Inf"} {
		g, err := parseGraph(spec, 1)
		if err == nil {
			t.Errorf("%s: built n=%d m=%d, want an error", spec, g.N(), g.M())
		} else if !strings.Contains(err.Error(), "must be finite") || !strings.Contains(err.Error(), ":<float>") {
			t.Errorf("%s: error %q does not say the field must be finite and name the form", spec, err)
		}
	}
	for _, spec := range []string{"random:50:1e-300", "random:50:5e-324"} {
		g, err := parseGraph(spec, 1)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
		} else if g.N() != 50 || g.M() != 49 || !g.Connected() {
			t.Errorf("%s: n=%d m=%d connected=%v, want a 50-node spanning tree", spec, g.N(), g.M(), g.Connected())
		}
	}
}

// TestRejectIneffective: a flag set outside the modes it affects is an
// error in every mode, and the per-mode table names only real flags.
func TestRejectIneffective(t *testing.T) {
	for _, tc := range []struct {
		mode string
		set  []string
		bad  string // "" = accepted
	}{
		{"construct", []string{"alg", "graph", "sched", "faults", "seed", "maxmoves"}, ""},
		{"construct", []string{"alg", "packets"}, "packets"},
		{"route", []string{"route", "graph", "packets", "workload", "faults"}, ""},
		{"route", []string{"route", "sched"}, "sched"},
		{"route", []string{"route", "alg"}, "alg"},
		{"churn", []string{"alg", "graph", "churn", "maxmoves"}, ""},
		{"churn", []string{"churn", "sched"}, "sched"},
		{"cluster", []string{"cluster", "alg", "graph", "loss"}, ""},
		{"cluster", []string{"cluster", "sched"}, "sched"},
		{"cluster", []string{"cluster", "churn"}, "churn"},
		{"serve", []string{"serve", "alg", "graph", "seed", "admin-dir", "tree-out", "churn-kill", "churn-rejoin-after", "serve-for", "trace", "trace-cap"}, ""},
		{"serve", []string{"serve", "loss"}, "loss"},
	} {
		err := rejectIneffective(tc.mode, tc.set)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%s %v: %v", tc.mode, tc.set, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), "-"+tc.bad+" has no effect")):
			t.Errorf("%s %v: got %v, want -%s rejected", tc.mode, tc.set, err, tc.bad)
		}
	}
}

// TestEffectiveTableNamesRealFlags checks the per-mode table against
// the flags the command registers: a renamed or added flag cannot leave
// a dead entry behind or go unlisted, and the count stays 23.
func TestEffectiveTableNamesRealFlags(t *testing.T) {
	if len(effective) != 5 {
		t.Fatalf("%d modes in the table, want 5", len(effective))
	}
	var all []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			all = append(all, f.Name)
		}
	})
	if len(all) != 23 {
		t.Errorf("sstsim declares %d flags, want 23", len(all))
	}
	covered := []string{"graph", "seed"}
	for mode, names := range effective {
		for _, name := range strings.Fields(names) {
			if !slices.Contains(all, name) {
				t.Errorf("mode %s lists -%s, which is not a flag", mode, name)
			}
			covered = append(covered, name)
		}
	}
	for _, name := range all {
		if !slices.Contains(covered, name) {
			t.Errorf("-%s is effective in no mode", name)
		}
	}
}

// TestSchedulerNames: -sched takes the registry's names and the three
// older spellings.
func TestSchedulerNames(t *testing.T) {
	for _, name := range []string{"central", "synchronous", "round-robin", "adversarial-unfair",
		"greedy-stretch", "random-central", "random-subset", "adversarial", "roundrobin", "random"} {
		if s, err := schedulerByName(name, 1); err != nil || s == nil {
			t.Errorf("-sched %s: %v", name, err)
		}
	}
	if _, err := schedulerByName("bogus", 1); err == nil {
		t.Error("-sched bogus accepted")
	}
}
