package cert

import (
	"fmt"

	"silentspan/internal/routing"
)

// Counterexample is one falsified claim, with everything needed to
// replay it.
type Counterexample struct {
	Graph     string `json:"graph"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Algorithm string `json:"algorithm"`
	Scheduler string `json:"scheduler"`
	Init      string `json:"init"`
	Detail    string `json:"detail"`
}

func (c Counterexample) String() string {
	return fmt.Sprintf("%s/%s on %s (n=%d m=%d, init %s): %s",
		c.Algorithm, c.Scheduler, c.Graph, c.N, c.M, c.Init, c.Detail)
}

// WorstEntry is one observed maximum together with the run that
// produced it, so the named (graph, daemon) pair replays the value.
type WorstEntry struct {
	Value     int    `json:"value"`
	Graph     string `json:"graph"`
	Scheduler string `json:"scheduler"`
}

// raise records value as the new maximum if it exceeds the entry's.
func (e *WorstEntry) raise(value int, graph, daemon string) {
	if value > e.Value {
		*e = WorstEntry{Value: value, Graph: graph, Scheduler: daemon}
	}
}

// WorstCase records the most expensive certified runs per algorithm,
// each metric with its own provenance (the worst moves, rounds and
// register width generally come from different runs).
type WorstCase struct {
	Moves        WorstEntry `json:"moves"`
	Rounds       WorstEntry `json:"rounds"`
	RegisterBits WorstEntry `json:"register_bits"`
}

// record books one certified run into the per-algorithm worst cases.
func record(worst map[string]WorstCase, a routing.Algo, stats RunStats, graph, daemon string) {
	w := worst[a.String()]
	w.Moves.raise(stats.Moves, graph, daemon)
	w.Rounds.raise(stats.Rounds, graph, daemon)
	w.RegisterBits.raise(stats.RegisterBits, graph, daemon)
	worst[a.String()] = w
}

// Ledger is the book the exhaustive, churn and cluster campaigns keep
// alike and embed in their reports: the counterexamples found so far,
// the cap that ends the hunt, and the campaign's log sink.
type Ledger struct {
	Counterexamples []Counterexample `json:"counterexamples"`

	max  int
	logf func(format string, args ...any)
}

func newLedger(max int, logf func(format string, args ...any)) Ledger {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return Ledger{max: max, logf: logf}
}

// Certified reports whether the campaign found no counterexample.
func (l *Ledger) Certified() bool { return len(l.Counterexamples) == 0 }

// full reports whether the hunt has reached its counterexample cap.
func (l *Ledger) full() bool { return len(l.Counterexamples) >= l.max }

// falsified books one failed run — daemon is the scheduler or transport
// profile, init how to replay the start — and reports whether the
// campaign must stop.
func (l *Ledger) falsified(ng NamedGraph, a routing.Algo, daemon, init string, err error) bool {
	ce := Counterexample{
		Graph: ng.Name, N: ng.G.N(), M: ng.G.M(), Algorithm: a.String(),
		Scheduler: daemon, Init: init, Detail: err.Error(),
	}
	l.Counterexamples = append(l.Counterexamples, ce)
	l.logf("COUNTEREXAMPLE: %s", ce)
	return l.full()
}

// progress logs the campaign's progress line after every every-th
// instance and after the last one.
func (l *Ledger) progress(gi, total, every int, format string, args ...any) {
	if (gi+1)%every == 0 || gi == total-1 {
		l.logf(format, args...)
	}
}
