package ops

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("ss_frames_total", "Frames.", Labels{"transport": "chan"}, func() float64 { return 3 })
	g := reg.Gauge("ss_ticks", "Ticks.", nil)
	g.Set(41)
	g.Add(1)
	reg.CounterFunc("ss_fn_total", "Func-backed.", nil, func() float64 { return 7 })
	reg.GaugeFunc("ss_fn_gauge", "Func gauge.", Labels{"a": "1", "b": "2"}, func() float64 { return 2.5 })

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP ss_frames_total Frames.",
		"# TYPE ss_frames_total counter",
		`ss_frames_total{transport="chan"} 3`,
		"# TYPE ss_ticks gauge",
		"ss_ticks 42",
		"ss_fn_total 7",
		`ss_fn_gauge{a="1",b="2"} 2.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if g.Value() != 42 {
		t.Errorf("Value() = %d; want 42", g.Value())
	}
}

func TestHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ss_interval", "Intervals.", Labels{"kind": "hb"}, []float64{1, 4, 16})
	for _, v := range []float64{0.5, 1, 3, 20, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE ss_interval histogram",
		`ss_interval_bucket{kind="hb",le="1"} 2`,
		`ss_interval_bucket{kind="hb",le="4"} 3`,
		`ss_interval_bucket{kind="hb",le="16"} 3`,
		`ss_interval_bucket{kind="hb",le="+Inf"} 5`,
		`ss_interval_sum{kind="hb"} 124.5`,
		`ss_interval_count{kind="hb"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 || h.Sum() != 124.5 {
		t.Errorf("Count/Sum = %d, %v; want 5, 124.5", h.Count(), h.Sum())
	}
}

func TestHistogramNoLabels(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ss_plain", "Plain.", nil, []float64{2})
	h.Observe(1)
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `ss_plain_bucket{le="2"} 1`) {
		t.Errorf("unlabeled histogram bucket malformed:\n%s", b.String())
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("ss_a_total", "A.", nil, func() float64 { return 5 })
	reg.Gauge("ss_b", "B.", Labels{"x": "y"}).Set(-3)
	h := reg.Histogram("ss_h", "H.", nil, []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	snap := reg.Snapshot()
	want := map[string]float64{
		"ss_a_total":  5,
		`ss_b{x="y"}`: -3,
		"ss_h_count":  2,
		"ss_h_sum":    2.5,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("Snapshot[%q] = %v, want %v", k, snap[k], v)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	zero := func() float64 { return 0 }
	reg.CounterFunc("ss_dup_total", "D.", Labels{"k": "v"}, zero)
	assertPanics(t, "same name+labels", func() {
		reg.CounterFunc("ss_dup_total", "D.", Labels{"k": "v"}, zero)
	})
	assertPanics(t, "same name different type", func() {
		reg.Gauge("ss_dup_total", "D.", Labels{"k": "w"})
	})
	// Same name, different labels, same type is fine.
	reg.CounterFunc("ss_dup_total", "D.", Labels{"k": "w"}, zero)
	assertPanics(t, "unsorted histogram bounds", func() {
		reg.Histogram("ss_hb", "H.", nil, []float64{4, 1})
	})
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{3: "3", 2.5: "2.5", -1: "-1", 0: "0"}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestConcurrentUpdatesWhileScraping(t *testing.T) {
	reg := NewRegistry()
	var c atomic.Int64
	reg.CounterFunc("ss_conc_total", "C.", nil, func() float64 { return float64(c.Load()) })
	h := reg.Histogram("ss_conc_h", "H.", nil, []float64{8, 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
				h.Observe(float64(i % 100))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		reg.WritePrometheus(&b)
		reg.Snapshot()
	}
	wg.Wait()
	if got := reg.Snapshot()["ss_conc_total"]; got != 4000 {
		t.Errorf("counter = %v, want 4000", got)
	}
	if h.Count() != 4000 {
		t.Errorf("histogram count = %d, want 4000", h.Count())
	}
}

// TestExpositionEscaping: label values and HELP text with backslashes,
// quotes, and newlines must render with the text-format escapes
// (\\, \", \n) — a raw quote or line feed corrupts the exposition and
// makes conformant scrapers reject the whole page.
func TestExpositionEscaping(t *testing.T) {
	tests := []struct {
		name   string
		metric string
		help   string
		labels Labels
		want   []string
	}{
		{
			name:   "quote in label value",
			metric: "ss_esc_quote",
			help:   "Quoted.",
			labels: Labels{"path": `say "hi"`},
			want:   []string{`ss_esc_quote{path="say \"hi\""} 1`},
		},
		{
			name:   "backslash in label value",
			metric: "ss_esc_backslash",
			help:   "Back.",
			labels: Labels{"dir": `C:\tmp\x`},
			want:   []string{`ss_esc_backslash{dir="C:\\tmp\\x"} 1`},
		},
		{
			name:   "newline in label value",
			metric: "ss_esc_newline",
			help:   "NL.",
			labels: Labels{"msg": "a\nb"},
			want:   []string{`ss_esc_newline{msg="a\nb"} 1`},
		},
		{
			name:   "all three combined",
			metric: "ss_esc_combo",
			help:   "Combo.",
			labels: Labels{"v": "\\\"\n"},
			want:   []string{`ss_esc_combo{v="\\\"\n"} 1`},
		},
		{
			name:   "backslash and newline in HELP",
			metric: "ss_esc_help",
			help:   "path \\tmp\nsecond line",
			labels: nil,
			want:   []string{`# HELP ss_esc_help path \\tmp\nsecond line`},
		},
		{
			name:   "quote in HELP stays literal",
			metric: "ss_esc_help_quote",
			help:   `says "hi"`,
			labels: nil,
			want:   []string{`# HELP ss_esc_help_quote says "hi"`},
		},
		{
			name:   "non-ASCII passes through unescaped",
			metric: "ss_esc_utf8",
			help:   "Ünïcode héllo.",
			labels: Labels{"name": "nœud-α"},
			want: []string{
				`# HELP ss_esc_utf8 Ünïcode héllo.`,
				`ss_esc_utf8{name="nœud-α"} 1`,
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			reg.CounterFunc(tc.metric, tc.help, tc.labels, func() float64 { return 1 })
			var b strings.Builder
			reg.WritePrometheus(&b)
			out := b.String()
			for _, want := range tc.want {
				found := false
				for _, line := range strings.Split(out, "\n") {
					if line == want {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("exposition missing exact line %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestEscapingHistogramLe: escaping applies to the merged le label path
// too (le values are numeric in practice, but the merge must not
// reopen the injection hole).
func TestEscapingHistogramLe(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ss_esc_hist", "H.", Labels{"q": `a"b`}, []float64{1})
	h.Observe(0.5)
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`ss_esc_hist_bucket{q="a\"b",le="1"} 1`,
		`ss_esc_hist_bucket{q="a\"b",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
