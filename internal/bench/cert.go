package bench

import (
	"fmt"
	"sort"

	"silentspan/internal/cert"
)

// worstRows renders one row per algorithm (sorted by name) of a
// campaign's worst-case ledger, each metric followed by the graph/daemon
// it was observed on.
func worstRows[W any](worst map[string]W, entries func(W) []cert.WorstEntry) [][]string {
	algos := make([]string, 0, len(worst))
	for a := range worst {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	var rows [][]string
	for _, a := range algos {
		row := []string{a}
		for _, e := range entries(worst[a]) {
			row = append(row, itoa(e.Value), e.Graph+"/"+e.Scheduler)
		}
		rows = append(rows, row)
	}
	return rows
}

func worstCaseEntries(w cert.WorstCase) []cert.WorstEntry {
	return []cert.WorstEntry{w.Moves, w.Rounds, w.RegisterBits}
}

// ledgerNotes closes a campaign table: the summary line with the
// counterexample count appended, then one note per counterexample.
func ledgerNotes(summary string, l *cert.Ledger) []string {
	notes := []string{fmt.Sprintf("%s counterexamples=%d", summary, len(l.Counterexamples))}
	for _, ce := range l.Counterexamples {
		notes = append(notes, "COUNTEREXAMPLE: "+ce.String())
	}
	return notes
}

// ExhaustiveTable renders a model-checking report as an experiment
// table: one row per algorithm with its observed worst case over every
// enumerated topology, daemon and initial configuration.
func ExhaustiveTable(r *cert.ExhaustiveReport) *Table {
	return &Table{
		Title:  "CERT-MC — exhaustive model check: worst certified cost per algorithm",
		Header: []string{"algorithm", "moves", "moves-on", "rounds", "rounds-on", "reg-bits", "bits-on"},
		Rows:   worstRows(r.Worst, worstCaseEntries),
		Notes: ledgerNotes(fmt.Sprintf("graphs=%d runs=%d exhaustive-inits=%d",
			r.Graphs, r.Runs, r.ExhaustiveInits), &r.Ledger),
	}
}

// ClusterTable renders a message-passing cluster certification report:
// one row per algorithm with its worst convergence latency (ticks) and
// register width over every graph × transport fault profile.
func ClusterTable(r *cert.ClusterReport) *Table {
	return &Table{
		Title:  "CERT-CLUSTER — message-passing transform: worst convergence per algorithm",
		Header: []string{"algorithm", "ticks", "ticks-on", "reg-bits", "bits-on"},
		Rows: worstRows(r.Worst, func(w cert.ClusterWorst) []cert.WorstEntry {
			return []cert.WorstEntry{w.Ticks, w.RegisterBits}
		}),
		Notes: ledgerNotes(fmt.Sprintf("graphs=%d runs=%d frames=%d rejected=%d packets=%d/%d",
			r.Graphs, r.Runs, r.FramesSent, r.FramesRejected, r.PacketsArrived, r.PacketsSent), &r.Ledger),
	}
}

// ChurnTable renders a churn certification report: one row per
// algorithm with its worst re-stabilization cost over every graph ×
// daemon × seeded join/leave/partition/heal schedule.
func ChurnTable(r *cert.ChurnReport) *Table {
	return &Table{
		Title:  "CERT-CHURN — live-topology churn: worst re-stabilization per algorithm",
		Header: []string{"algorithm", "moves", "moves-on", "rounds", "rounds-on", "reg-bits", "bits-on"},
		Rows:   worstRows(r.Worst, worstCaseEntries),
		Notes: ledgerNotes(fmt.Sprintf("graphs=%d runs=%d mutations=%d cohort=%d/%d",
			r.Graphs, r.Runs, r.Mutations, r.PacketsArrived, r.PacketsSent), &r.Ledger),
	}
}

// ChaosTable renders a chaos certificate: one row per fault burst plus
// a worst-case summary row.
func ChaosTable(c *cert.Certificate) *Table {
	t := &Table{
		Title: fmt.Sprintf("CERT-CHAOS — %s substrate, n=%d m=%d, daemon %s, seed %d",
			c.Config.Substrate, c.N, c.M, c.Config.Scheduler, c.Config.Seed),
		Header: []string{"burst", "faults", "rec-moves", "rec-rounds", "windows", "delivered", "dropped", "stretch", "reg-bits"},
	}
	for _, b := range c.Bursts {
		t.Rows = append(t.Rows, []string{
			itoa(b.Burst),
			fmt.Sprintf("%dc+%dw+%dr", b.Corrupted, b.Wiped, b.Reweighed),
			itoa(b.RecoveryMoves), itoa(b.RecoveryRounds), itoa(b.Windows),
			fmt.Sprintf("%d/%d", b.Delivered, b.Delivered+b.Dropped),
			itoa(b.Dropped),
			fmt.Sprintf("%.3f", b.PostStretch),
			itoa(b.RegisterBits),
		})
	}
	t.Rows = append(t.Rows, []string{
		"worst", "-",
		itoa(c.Worst.RecoveryMoves), itoa(c.Worst.RecoveryRounds), itoa(c.Worst.Windows),
		fmt.Sprintf("min-rate %.3f", c.Worst.MinDelivery),
		itoa(c.Worst.Dropped),
		fmt.Sprintf("%.3f", c.Worst.Stretch),
		itoa(c.Worst.RegisterBits),
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("algorithm=%s initial-stabilization=%d moves/%d rounds register-bound=%d final-silent=%v final-spec-valid=%v",
			c.Algorithm, c.InitialMoves, c.InitialRounds, c.RegisterBound, c.FinalSilent, c.FinalSpecValid))
	return t
}
