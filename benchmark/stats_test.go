package main

import (
	"math"
	"sort"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// curvePercentile is the p-th percentile of a cumulative completion
// curve, the way the stages read one: samples, sort, nearest rank.
func curvePercentile(x0 float64, x []float64, cum []int, p float64) float64 {
	s := curveSamples(x0, x, cum)
	sort.Float64s(s)
	return percentile(s, p)
}

// TestQuartilesMatchPython pins summarize to the values Python's
// statistics.quantiles(xs, n=4) and statistics.median return, since the
// driver judges spreads with those.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 3, 2, 9, 4, 8, 5, 7, 6}, 2.75, 5.5, 8.25}, // order must not matter
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolated, as Python does
		{[]float64{3}, 3, 3, 3},
	} {
		s := summarize(tc.xs)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.med) || !near(s.Q3, tc.q3) || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.xs, s, tc.q1, tc.med, tc.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 (5.5 between quartiles over a median of 5.5)", got)
	}
}

func TestPercentileFromCumulativeCurve(t *testing.T) {
	// 10 packets launched at tick 0: 2 delivered by tick 1, 6 more by
	// tick 2, nothing at tick 3, the last 2 by tick 4.
	x := []float64{1, 2, 3, 4}
	cum := []int{2, 8, 8, 10}
	got := curveSamples(0, x, cum)
	want := []float64{0.5, 1, 1 + 1.0/6, 1 + 2.0/6, 1 + 3.0/6, 1 + 4.0/6, 1 + 5.0/6, 2, 3.5, 4}
	if len(got) != len(want) {
		t.Fatalf("curveSamples = %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("curveSamples = %v, want %v", got, want)
		}
	}
	for _, tc := range []struct{ p, want float64 }{
		{10, 0.5}, {20, 1}, {50, 1.5}, {80, 2}, {90, 3.5}, {99, 4}, {100, 4},
	} {
		if got := curvePercentile(0, x, cum, tc.p); !near(got, tc.want) {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	// A curve polled in milliseconds from a due time of 0, with a
	// first observation that already holds everything.
	if got := curvePercentile(0, []float64{8}, []int{4}, 50); !near(got, 4) {
		t.Errorf("single-observation p50 = %v, want 4", got)
	}
	if got := curvePercentile(0, nil, nil, 50); got != 0 {
		t.Errorf("empty curve p50 = %v, want 0", got)
	}
}

func TestLittleMean(t *testing.T) {
	// 100 packets each spending 20 ms in the system: whenever and
	// however they overlap, the outstanding-level curve encloses
	// 100 × 0.020 packet-seconds.
	if got := littleMean(100*0.020, 100); !near(got, 0.020) {
		t.Errorf("littleMean = %v, want 0.020", got)
	}
	// A level of 5 outstanding held for 2 s while 50 packets resolve.
	if got := littleMean(5*2, 50); !near(got, 0.2) {
		t.Errorf("littleMean = %v, want 0.2", got)
	}
	if got := littleMean(3, 0); got != 0 {
		t.Errorf("littleMean with nothing resolved = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},       // nested child
		{Name: "a.leaf", Start: 12, End: 20, Parent: 1},  // grandchild: counts against a, not root
		{Name: "b", Start: 40, End: 70, Parent: 0},       // overlaps c
		{Name: "c", Start: 60, End: 90, Parent: 0},       // overlap 60..70 is covered once
		{Name: "d", Start: 95, End: 120, Parent: 0},      // reaches past its parent: only 95..100 counts
		{Name: "e", Start: 62, End: 65, Parent: 0},       // inside b's cover already
		{Name: "lone", Start: 200, End: 250, Parent: -1}, // no children
	}
	want := []int64{
		100 - (20 + 50 + 5), // root: a 20, b∪c∪e 40..90 = 50, d 5
		20 - 8,
		8,
		30, 30, 25, 3,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNestsAndAggregates(t *testing.T) {
	tr := newTracer(true)
	tr.time("outer.Call", func() counts {
		tr.time("inner.Call", func() counts { return counts{"ops": 3} })
		tr.time("inner.Call", func() counts { return counts{"ops": 4} })
		return counts{"ops": 1}
	})
	if len(tr.spans) != 3 || len(tr.stack) != 0 {
		t.Fatalf("spans %d, open %d; want 3 closed spans", len(tr.spans), len(tr.stack))
	}
	if tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 {
		t.Errorf("parents = %d %d %d, want -1 0 0", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	if tr.spans[1].Layer != "inner" {
		t.Errorf("layer = %q, want inner", tr.spans[1].Layer)
	}
	tot := tr.totals()
	if in := tot["inner.Call"]; in.Calls != 2 || in.Counts["ops"] != 7 {
		t.Errorf("inner total = %+v, want 2 calls and 7 ops", in)
	}
	if out := tot["outer.Call"]; out.Self > out.Total || out.Self < 0 {
		t.Errorf("outer self %v outside [0, total %v]", out.Self, out.Total)
	}
	if got := selfPer(tot, "missing", "ops"); got != 0 {
		t.Errorf("selfPer of an unrecorded span = %v, want 0", got)
	}

	off := newTracer(false)
	ran := false
	off.call("x.Y", func() { ran = true })
	if !ran || len(off.spans) != 0 {
		t.Errorf("disabled tracer: ran=%v spans=%d, want the call made and nothing recorded", ran, len(off.spans))
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, lower); !near(got, 0.1) {
		t.Errorf("lower-is-better 100→110 = %v, want 0.1", got)
	}
	if got := worseBy(100, 90, higher); !near(got, 0.1) {
		t.Errorf("higher-is-better 100→90 = %v, want 0.1", got)
	}
	if got := worseBy(100, 90, lower); !near(got, -0.1) {
		t.Errorf("an improvement must read negative, got %v", got)
	}
}
