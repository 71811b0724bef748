package cert

import (
	"strings"
	"testing"

	"silentspan/internal/routing"
)

// TestExhaustiveSmallSliceCertifies runs the n≤4 slice — every
// connected topology up to isomorphism, all five algorithms, all seven
// daemons, plus the exhaustive initial-state sweep at n≤3 — and
// requires zero counterexamples. This is the fast always-on guard; CI
// runs the n≤5 slice through cmd/sscert and the full certification uses
// n≤6.
func TestExhaustiveSmallSliceCertifies(t *testing.T) {
	rep, err := RunExhaustive(ExhaustiveConfig{
		MaxN:               4,
		Samples:            2,
		ExhaustiveInitMaxN: 3,
		SkipFamilies:       true,
		Seed:               1,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ce := range rep.Counterexamples {
		t.Errorf("counterexample: %s", ce)
	}
	if rep.Graphs != 1+1+2+6 {
		t.Errorf("checked %d graphs, want 10", rep.Graphs)
	}
	if rep.ExhaustiveInits == 0 {
		t.Error("exhaustive initial-state slice did not run")
	}
	for _, a := range routing.AllAlgos() {
		w, ok := rep.Worst[a.String()]
		if !ok {
			t.Errorf("no worst-case record for %s", a)
			continue
		}
		if w.RegisterBits.Value == 0 {
			t.Errorf("%s: no register width recorded", a)
		}
		if w.Moves.Graph == "" || w.Moves.Scheduler == "" {
			t.Errorf("%s: worst-moves entry lacks provenance: %+v", a, w.Moves)
		}
	}
}

// TestSchedulerRegistryComplete: the registry carries the paper's
// unfair daemon, both deterministic extremes, and the round-stretching
// adversary; every entry constructs.
func TestSchedulerRegistryComplete(t *testing.T) {
	want := []string{"central", "synchronous", "round-robin", "adversarial-unfair",
		"greedy-stretch", "random-central", "random-subset"}
	specs := Schedulers()
	if len(specs) != len(want) {
		t.Fatalf("registry has %d daemons, want %d", len(specs), len(want))
	}
	for i, name := range want {
		if specs[i].Name != name {
			t.Errorf("daemon %d is %q, want %q", i, specs[i].Name, name)
		}
		if specs[i].New(7) == nil {
			t.Errorf("daemon %q constructs nil", name)
		}
	}
	if _, err := SchedulerByName("nonesuch"); err == nil {
		t.Error("accepted unknown daemon name")
	}
}

// TestBoundsCheckFlagsViolations: every envelope of the bounds file
// fires on a certificate that exceeds it, and a conforming certificate
// passes clean.
func TestBoundsCheckFlagsViolations(t *testing.T) {
	b := Bounds{
		MaxRecoveryMoves:   100,
		MaxRecoveryRounds:  50,
		MaxWindows:         10,
		MaxRegisterBits:    40,
		MaxStretch:         2,
		MinDeliveryRate:    0.9,
		MaxDroppedPerBurst: 1,
	}
	good := &Certificate{
		FinalSilent: true, FinalSpecValid: true,
		Worst: ChaosWorst{
			RecoveryMoves: 50, RecoveryRounds: 20, Windows: 5,
			RegisterBits: 30, Stretch: 1.5, Dropped: 0, MinDelivery: 1,
		},
	}
	if v := b.Check(good); len(v) != 0 {
		t.Fatalf("conforming certificate flagged: %v", v)
	}
	bad := &Certificate{
		FinalSilent: false, FinalSpecValid: false,
		Worst: ChaosWorst{
			RecoveryMoves: 200, RecoveryRounds: 60, Windows: 20,
			RegisterBits: 50, Stretch: 3, Dropped: 5, MinDelivery: 0.5,
		},
	}
	v := b.Check(bad)
	if len(v) != 9 {
		t.Fatalf("got %d violations, want 9: %v", len(v), v)
	}
	for _, msg := range v {
		if strings.TrimSpace(msg) == "" {
			t.Error("empty violation message")
		}
	}
}

// TestRegisterBitsBoundScalesLogarithmically: the committed width bound
// must itself be O(log n) — a bound that silently grew linear would
// make the width check vacuous.
func TestRegisterBitsBoundScalesLogarithmically(t *testing.T) {
	for _, ng := range EnumerateConnected(4)[:1] {
		for _, a := range routing.AllAlgos() {
			if got := RegisterBitsBound(a, ng.G); got > 40 {
				t.Errorf("%s bound on n=4 is %d bits", a, got)
			}
		}
	}
}
