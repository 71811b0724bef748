package main

import (
	"strings"
	"testing"
)

// TestPick: -only selects one experiment in any case, "" selects the
// whole report, and a name that is not in the report — a retired table
// included — is an error listing every valid name, not an empty run.
func TestPick(t *testing.T) {
	all := experiments(true, 1)
	var names []string
	for _, e := range all {
		names = append(names, e.name)
	}
	if got := strings.Join(names, " "); got != "E1 E2 E3 E4 E5 E6 E7 E8 A1 A2 A3 A4 A5" {
		t.Fatalf("report is %s", got)
	}
	if run, err := pick(all, ""); err != nil || len(run) != len(all) {
		t.Errorf(`-only "": %d experiments, %v`, len(run), err)
	}
	if run, err := pick(all, "a3"); err != nil || len(run) != 1 || run[0].name != "A3" {
		t.Errorf("-only a3: %v, %v", run, err)
	}
	for _, bad := range []string{"E12", "E9", "bogus"} {
		run, err := pick(all, bad)
		if err == nil {
			t.Errorf("-only %s selected %d experiments, want an error", bad, len(run))
			continue
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-only %s: error %q does not list %s", bad, err, name)
			}
		}
	}
}
